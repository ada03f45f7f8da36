package index

import (
	"strings"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/textproc"
)

// The reference snippet: Snippet as it was before the stem memo and the
// page-level Snippeter, with the query's stems resolved per row, every text
// split by strings.Fields, and a fresh Porter stemmer per paper stemming
// every word of its abstract and body. It survives only here, as the oracle
// the Snippeter must match byte for byte. A paper's words are stemmed once
// and serve every query.

// refText is one text as the reference reads it: its words as
// strings.Fields splits them, with each word's normalised form and that
// form's Porter stem ("" for a word that normalises to nothing).
type refText struct {
	raw, norm, stem []string
}

// newRefText splits and stems text with stemmer.
func newRefText(text string, stemmer *textproc.PorterStemmer) refText {
	t := refText{raw: strings.Fields(text)}
	t.norm = make([]string, len(t.raw))
	t.stem = make([]string, len(t.raw))
	for i, w := range t.raw {
		if t.norm[i] = normalizeWord(w); t.norm[i] != "" {
			t.stem[i] = stemmer.Stem(t.norm[i])
		}
	}
	return t
}

// refPaper is one paper as the reference reads it, for every query.
type refPaper struct {
	ix             *Index
	abstract, body refText
}

// newRefPaper stems the abstract and body of paper doc with a fresh
// stemmer; it is nil for an unknown paper.
func newRefPaper(ix *Index, doc corpus.PaperID) *refPaper {
	p := ix.analyzer.Corpus().Paper(doc)
	if p == nil {
		return nil
	}
	stemmer := textproc.NewPorterStemmer()
	return &refPaper{ix: ix, abstract: newRefText(p.Abstract, stemmer), body: newRefText(p.Body, stemmer)}
}

// snippetRef is the reference Snippet. It also names the text it excerpts:
// "abstract" or "body" where a word matches, "head" otherwise.
func snippetRef(ix *Index, doc corpus.PaperID, query string, opts SnippetOptions) (snippet, source string) {
	return newRefPaper(ix, doc).snippet(query, opts)
}

// snippet is the reference Snippet of the paper rp reads.
func (rp *refPaper) snippet(query string, opts SnippetOptions) (snippet, source string) {
	if rp == nil {
		return "", ""
	}
	if opts.Window <= 0 {
		opts.Window = 30
	}
	if opts.Pre == "" && opts.Post == "" {
		opts.Pre, opts.Post = "[", "]"
	}
	queryStems := map[string]bool{}
	for _, t := range rp.ix.analyzer.Tokenizer().Terms(query) {
		queryStems[t] = true
	}
	if s, ok := rp.abstract.snippet(queryStems, opts); ok {
		return s, "abstract"
	}
	if s, ok := rp.body.snippet(queryStems, opts); ok {
		return s, "body"
	}
	words := rp.abstract.raw
	if len(words) > opts.Window {
		words = words[:opts.Window]
		return strings.Join(words, " ") + " …", "head"
	}
	return strings.Join(words, " "), "head"
}

// snippetFromRef is the reference snippetFrom.
func snippetFromRef(text string, queryStems map[string]bool, opts SnippetOptions) (string, bool) {
	return newRefText(text, textproc.NewPorterStemmer()).snippet(queryStems, opts)
}

// snippet is the reference snippetFrom over t.
func (t refText) snippet(queryStems map[string]bool, opts SnippetOptions) (string, bool) {
	raw := t.raw
	if len(raw) == 0 || len(queryStems) == 0 {
		return "", false
	}
	matched := make([]bool, len(raw))
	any := false
	for i, norm := range t.norm {
		if norm == "" {
			continue
		}
		if queryStems[norm] || queryStems[t.stem[i]] {
			matched[i] = true
			any = true
		}
	}
	if !any {
		return "", false
	}
	win := opts.Window
	if win > len(raw) {
		win = len(raw)
	}
	count := 0
	for i := 0; i < win; i++ {
		if matched[i] {
			count++
		}
	}
	best, bestCount := 0, count
	for i := win; i < len(raw); i++ {
		if matched[i] {
			count++
		}
		if matched[i-win] {
			count--
		}
		if count > bestCount {
			bestCount = count
			best = i - win + 1
		}
	}
	var b strings.Builder
	if best > 0 {
		b.WriteString("… ")
	}
	for i := best; i < best+win; i++ {
		if i > best {
			b.WriteByte(' ')
		}
		if matched[i] {
			b.WriteString(opts.Pre)
			b.WriteString(raw[i])
			b.WriteString(opts.Post)
		} else {
			b.WriteString(raw[i])
		}
	}
	if best+win < len(raw) {
		b.WriteString(" …")
	}
	return b.String(), true
}

// normalizeWord is the reference normalisation: it lowercases and strips
// surrounding punctuation from a raw word, mirroring the tokenizer's
// normalisation closely enough for highlighting.
func normalizeWord(w string) string {
	start, end := 0, len(w)
	for start < end && !isAlnum(w[start]) {
		start++
	}
	for end > start && !isAlnum(w[end-1]) {
		end--
	}
	return strings.ToLower(w[start:end])
}
