package index

import "ctxsearch/internal/corpus"

// RaceEnabled reports whether the race detector instruments this build.
const RaceEnabled = raceEnabled

// SnippetRef is the reference Snippet (snippet_ref_test.go) and the text it
// excerpts, for the tests of package index_test.
func (ix *Index) SnippetRef(doc corpus.PaperID, query string, opts SnippetOptions) (snippet, source string) {
	return snippetRef(ix, doc, query, opts)
}

// StemMemoLen returns the number of words in the index's stem memo.
func (ix *Index) StemMemoLen() int { return len(memoWords(ix)) }
