package index

import (
	"strings"
	"sync"
	"unicode/utf8"

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

// Snippeter renders the snippets of one page: it resolves the query's stems
// once, and every row's text is then scanned in place against them. It is
// immutable once built, so one Snippeter may render from many goroutines.
type Snippeter struct {
	ix    *Index
	opts  SnippetOptions
	stems map[string]bool
	// first[c] is set when some query stem begins with byte c, and minLen
	// is the length of the shortest stem. A normalised word matches a stem
	// only if it equals it or stems to it, and a Porter stem keeps its
	// word's first byte and is never longer than the word: a word that
	// begins with another byte, or is shorter, cannot match, and is never
	// stemmed.
	first  [256]bool
	minLen int
}

// Snippeter returns the snippet renderer of one query and set of options,
// for every row of a page.
func (ix *Index) Snippeter(query string, opts SnippetOptions) *Snippeter {
	if opts.Window <= 0 {
		opts.Window = 30
	}
	if opts.Pre == "" && opts.Post == "" {
		opts.Pre, opts.Post = "[", "]"
	}
	s := &Snippeter{ix: ix, opts: opts, stems: map[string]bool{}}
	for _, t := range ix.analyzer.Tokenizer().Terms(query) {
		// The tokenizer emits no empty term, and no word stems to one.
		if t == "" {
			continue
		}
		s.stems[t] = true
		s.first[t[0]] = true
		if s.minLen == 0 || len(t) < s.minLen {
			s.minLen = len(t)
		}
	}
	return s
}

// Snippet returns an excerpt of the paper around the densest cluster of
// query-term matches, with matched words wrapped in Pre/Post markers. It is
// ix.Snippeter(query, opts).Snippet(doc); a page's rows share one Snippeter.
func (ix *Index) Snippet(doc corpus.PaperID, query string, opts SnippetOptions) string {
	return ix.Snippeter(query, opts).Snippet(doc)
}

// Snippet returns an excerpt of the paper around the densest cluster of
// query-term matches, with matched words wrapped in Pre/Post markers. The
// abstract is preferred; the body is used when the abstract has no match.
// Matching is stem-aware ("binding" highlights "binds"). Returns the head
// of the abstract when nothing matches, and "" for an unknown paper.
func (s *Snippeter) Snippet(doc corpus.PaperID) string {
	p := s.ix.analyzer.Corpus().Paper(doc)
	if p == nil {
		return ""
	}
	sc := scratchPool.Get().(*snippetScratch)
	defer sc.release()
	if len(s.stems) > 0 {
		for _, text := range [2]string{p.Abstract, p.Body} {
			if out, ok := s.snippetFrom(text, sc); ok {
				return out
			}
		}
	}
	// Fall back to the abstract head.
	sc.words = appendFields(sc.words[:0], p.Abstract)
	if len(sc.words) > s.opts.Window {
		return strings.Join(sc.words[:s.opts.Window], " ") + " …"
	}
	return strings.Join(sc.words, " ")
}

// snippetScratch is one render's word spans and match marks, pooled across
// rows and pages.
type snippetScratch struct {
	words   []string
	matched []bool
}

var scratchPool = sync.Pool{New: func() any { return new(snippetScratch) }}

// release returns sc to the pool, dropping its references to paper text.
func (sc *snippetScratch) release() {
	clear(sc.words)
	scratchPool.Put(sc)
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
func (s *Snippeter) snippetFrom(text string, sc *snippetScratch) (string, bool) {
	raw := appendFields(sc.words[:0], text)
	sc.words = raw
	if cap(sc.matched) < len(raw) {
		sc.matched = make([]bool, len(raw))
	}
	matched := sc.matched[:len(raw)]
	hit := false
	for i, w := range raw {
		matched[i] = s.matches(w)
		hit = hit || matched[i]
	}
	if !hit {
		return "", false
	}
	// Densest window by match count (first wins on ties).
	win := min(s.opts.Window, len(raw))
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
	head, tail := "", ""
	if best > 0 {
		head = "… "
	}
	if best+win < len(raw) {
		tail = " …"
	}
	n := len(head) + len(tail) + win - 1
	for i := best; i < best+win; i++ {
		n += len(raw[i])
		if matched[i] {
			n += len(s.opts.Pre) + len(s.opts.Post)
		}
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(head)
	for i := best; i < best+win; i++ {
		if i > best {
			b.WriteByte(' ')
		}
		if matched[i] {
			b.WriteString(s.opts.Pre)
			b.WriteString(raw[i])
			b.WriteString(s.opts.Post)
		} else {
			b.WriteString(raw[i])
		}
	}
	b.WriteString(tail)
	return b.String(), true
}

// matches reports whether the raw word w highlights: its normalised form —
// surrounding punctuation stripped, lowercased — or that form's Porter stem
// is a query stem.
func (s *Snippeter) matches(w string) bool {
	w = trimWord(w)
	// w[0] is an ASCII letter or digit, so |0x20 is its lower case.
	if w == "" || !s.first[w[0]|0x20] {
		return false
	}
	// strings.ToLower copies only a word with an upper-case or non-ASCII
	// byte.
	norm := strings.ToLower(w)
	if len(norm) < s.minLen {
		return false
	}
	stem := s.ix.stem(norm)
	return s.stems[norm] || s.stems[stem]
}

// appendFields appends the words of text to dst as strings.Fields splits
// them, each a substring of text. ASCII text is split in place; text with
// any byte ≥ 0x80 is split by strings.Fields itself.
func appendFields(dst []string, text string) []string {
	base := len(dst)
	for i := 0; i < len(text); {
		for i < len(text) && byteClass[text[i]] == spaceByte {
			i++
		}
		start := i
		for i < len(text) && byteClass[text[i]] == wordByte {
			i++
		}
		if i < len(text) && byteClass[text[i]] == nonASCIIByte {
			return append(dst[:base], strings.Fields(text)...)
		}
		if i > start {
			dst = append(dst, text[start:i])
		}
	}
	return dst
}

// byteClass sorts bytes for appendFields: the ASCII bytes unicode.IsSpace
// accepts, which separate strings.Fields' words in ASCII text, the bytes
// ≥ 0x80 that end the in-place split, and the rest.
var byteClass = func() (c [256]uint8) {
	for _, b := range []byte{'\t', '\n', '\v', '\f', '\r', ' '} {
		c[b] = spaceByte
	}
	for b := utf8.RuneSelf; b < len(c); b++ {
		c[b] = nonASCIIByte
	}
	return c
}()

const (
	wordByte = iota
	spaceByte
	nonASCIIByte
)

// trimWord strips the surrounding punctuation of a raw word: every byte but
// an ASCII letter or digit.
func trimWord(w string) string {
	start, end := 0, len(w)
	for start < end && !isAlnum(w[start]) {
		start++
	}
	for end > start && !isAlnum(w[end-1]) {
		end--
	}
	return w[start:end]
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
