package index

import "ctxsearch/internal/corpus"

// RaceEnabled reports whether the race detector instruments this build.
const RaceEnabled = raceEnabled

// SnippetRef is the reference Snippet (snippet_ref_test.go) and the text it
// excerpts, for the tests of package index_test.
func (ix *Index) SnippetRef(doc corpus.PaperID, query string, opts SnippetOptions) (snippet, source string) {
	return snippetRef(ix, doc, query, opts)
}

// SnippetRefPaper returns the reference Snippet of paper doc for any query
// and options, with the paper's words stemmed once for all of them.
func (ix *Index) SnippetRefPaper(doc corpus.PaperID) func(query string, opts SnippetOptions) (snippet, source string) {
	return newRefPaper(ix, doc).snippet
}

// WordTableLen returns the number of words in the index's snippet word
// table.
func (ix *Index) WordTableLen() int { return len(tableWords(ix)) }
