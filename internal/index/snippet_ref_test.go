package index

import (
	"strings"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/textproc"
)

// The reference snippet: Snippet as it was before the stem memo, with a
// fresh Porter stemmer per text and every word stemmed where it is met. It
// survives only here, as the oracle the memoised Snippet must match byte
// for byte.

// snippetRef is the reference Snippet. It also names the text it excerpts:
// "abstract" or "body" where a word matches, "head" otherwise.
func snippetRef(ix *Index, doc corpus.PaperID, query string, opts SnippetOptions) (snippet, source string) {
	if opts.Window <= 0 {
		opts.Window = 30
	}
	if opts.Pre == "" && opts.Post == "" {
		opts.Pre, opts.Post = "[", "]"
	}
	p := ix.analyzer.Corpus().Paper(doc)
	if p == nil {
		return "", ""
	}
	queryStems := map[string]bool{}
	for _, t := range ix.analyzer.Tokenizer().Terms(query) {
		queryStems[t] = true
	}
	if s, ok := snippetFromRef(p.Abstract, queryStems, opts); ok {
		return s, "abstract"
	}
	if s, ok := snippetFromRef(p.Body, queryStems, opts); ok {
		return s, "body"
	}
	words := strings.Fields(p.Abstract)
	if len(words) > opts.Window {
		words = words[:opts.Window]
		return strings.Join(words, " ") + " …", "head"
	}
	return strings.Join(words, " "), "head"
}

// snippetFromRef is the reference snippetFrom.
func snippetFromRef(text string, queryStems map[string]bool, opts SnippetOptions) (string, bool) {
	raw := strings.Fields(text)
	if len(raw) == 0 || len(queryStems) == 0 {
		return "", false
	}
	stemmer := textproc.NewPorterStemmer()
	matched := make([]bool, len(raw))
	any := false
	for i, w := range raw {
		norm := normalizeWord(w)
		if norm == "" {
			continue
		}
		if queryStems[norm] || queryStems[stemmer.Stem(norm)] {
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
