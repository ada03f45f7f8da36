package index

import (
	"strings"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/textproc"
)

// SnippetOptions configure excerpt generation.
type SnippetOptions struct {
	// Window is the number of raw words in the excerpt (default 30).
	Window int
	// Pre and Post wrap each matched word (default "[" and "]").
	Pre, Post string
}

// Snippet returns an excerpt of the paper around the densest cluster of
// query-term matches, with matched words wrapped in Pre/Post markers. The
// abstract is preferred; the body is used when the abstract has no match.
// Matching is stem-aware ("binding" highlights "binds"). Returns the head
// of the abstract when nothing matches.
func (ix *Index) Snippet(doc corpus.PaperID, query string, opts SnippetOptions) string {
	if opts.Window <= 0 {
		opts.Window = 30
	}
	if opts.Pre == "" && opts.Post == "" {
		opts.Pre, opts.Post = "[", "]"
	}
	p := ix.analyzer.Corpus().Paper(doc)
	if p == nil {
		return ""
	}
	queryStems := map[string]bool{}
	for _, t := range ix.analyzer.Tokenizer().Terms(query) {
		queryStems[t] = true
	}
	for _, text := range []string{p.Abstract, p.Body} {
		if s, ok := ix.snippetFrom(text, queryStems, opts); ok {
			return s
		}
	}
	// Fall back to the abstract head.
	words := strings.Fields(p.Abstract)
	if len(words) > opts.Window {
		words = words[:opts.Window]
		return strings.Join(words, " ") + " …"
	}
	return strings.Join(words, " ")
}

// stem returns the Porter stem of the normalised word norm through the
// stem memo.
func (ix *Index) stem(norm string) string {
	if v, ok := ix.stems.Load(norm); ok {
		return v.(string)
	}
	// norm is usually a substring of a paper's text: clone it so the memo
	// holds only its own words.
	norm = strings.Clone(norm)
	v, _ := ix.stems.LoadOrStore(norm, textproc.NewPorterStemmer().Stem(norm))
	return v.(string)
}

// snippetFrom finds the window of raw words with the most stem matches and
// renders it; ok is false when no word matches.
func (ix *Index) snippetFrom(text string, queryStems map[string]bool, opts SnippetOptions) (string, bool) {
	raw := strings.Fields(text)
	if len(raw) == 0 || len(queryStems) == 0 {
		return "", false
	}
	matched := make([]bool, len(raw))
	any := false
	for i, w := range raw {
		norm := normalizeWord(w)
		if norm == "" {
			continue
		}
		if stem := ix.stem(norm); queryStems[norm] || queryStems[stem] {
			matched[i] = true
			any = true
		}
	}
	if !any {
		return "", false
	}
	// Densest window by match count (first wins on ties).
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

// normalizeWord lowercases and strips surrounding punctuation from a raw
// word, mirroring the tokenizer's normalisation closely enough for
// highlighting.
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

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
