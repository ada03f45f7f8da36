package index

import (
	"strings"
	"sync"
	"unicode"
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

// Snippeter renders the snippets of one page: every row's text is scanned
// in place against the query's terms. It is immutable once built, so one
// Snippeter may render from many goroutines.
type Snippeter struct {
	ix   *Index
	opts SnippetOptions
	// stems are the query's terms as the caller passed them, duplicates
	// included. A query has a handful, so a word is compared with each
	// rather than hashed.
	stems []string
	// first[c] is set when some query stem begins with byte c, and minLen
	// is the length of the shortest stem. A normalised word matches a stem
	// only if it equals it or stems to it, and a Porter stem keeps its
	// word's first byte and is never longer than the word: a word that
	// begins with another byte, or is shorter, cannot match, and is never
	// looked up.
	first  [256]bool
	minLen int
}

// Snippeter returns the snippet renderer of one query and set of options,
// for every row of a page. terms are the query's Tokenizer.Terms: a page's
// come from search.Engine.Page, which tokenized the query once for its
// ranking. The Snippeter keeps terms and never writes to them; the caller
// must not change them while it renders.
func (ix *Index) Snippeter(terms []string, opts SnippetOptions) *Snippeter {
	if opts.Window <= 0 {
		opts.Window = 30
	}
	if opts.Pre == "" && opts.Post == "" {
		opts.Pre, opts.Post = "[", "]"
	}
	s := &Snippeter{ix: ix, opts: opts, stems: terms}
	for _, t := range terms {
		// The tokenizer emits no empty term, and no word stems to one.
		if t == "" {
			continue
		}
		s.first[t[0]] = true
		if s.minLen == 0 || len(t) < s.minLen {
			s.minLen = len(t)
		}
	}
	return s
}

// Snippet returns an excerpt of the paper around the densest cluster of
// query-term matches, with matched words wrapped in Pre/Post markers. It
// tokenizes query, for this one row: a page's rows share one Snippeter.
func (ix *Index) Snippet(doc corpus.PaperID, query string, opts SnippetOptions) string {
	return ix.Snippeter(ix.analyzer.Tokenizer().Terms(query), opts).Snippet(doc)
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
	s.scan(p.Abstract, sc)
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

// snippetFrom finds the window of raw words with the most stem matches and
// renders it; ok is false when no word matches.
func (s *Snippeter) snippetFrom(text string, sc *snippetScratch) (string, bool) {
	if !s.scan(text, sc) {
		return "", false
	}
	raw, matched := sc.words, sc.matched
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

// scan splits text into sc.words as strings.Fields does, marks in
// sc.matched the words that highlight, and reports whether any does. ASCII
// text is split and matched in one pass; text with a byte ≥ 0x80 is split by
// strings.Fields.
func (s *Snippeter) scan(text string, sc *snippetScratch) bool {
	words, matched := sc.words[:0], sc.matched[:0]
	hit := false
	for i := 0; i < len(text); {
		for i < len(text) && byteClass[text[i]] == spaceByte {
			i++
		}
		start := i
		for i < len(text) && byteClass[text[i]] == wordByte {
			i++
		}
		if i < len(text) && byteClass[text[i]] == nonASCIIByte {
			sc.words, sc.matched = words, matched
			return s.scanFields(text, sc)
		}
		if i == start {
			continue
		}
		w := text[start:i]
		// An ASCII word is as long as its normalised form, and a word that
		// begins with a letter or digit keeps it when trimmed: most words
		// fail the prefilter here.
		m := len(w) >= s.minLen && (!isAlnum(w[0]) || s.first[w[0]|0x20]) && s.matches(w, true)
		words = append(words, w)
		matched = append(matched, m)
		hit = hit || m
	}
	sc.words, sc.matched = words, matched
	return hit
}

// scanFields is scan for text with a byte ≥ 0x80.
func (s *Snippeter) scanFields(text string, sc *snippetScratch) bool {
	sc.words = append(sc.words[:0], strings.Fields(text)...)
	sc.matched = sc.matched[:0]
	hit := false
	for _, w := range sc.words {
		m := s.matches(w, false)
		sc.matched = append(sc.matched, m)
		hit = hit || m
	}
	return hit
}

// matches reports whether the raw word w highlights: its normalised form —
// surrounding punctuation stripped, lowercased — or that form's Porter stem
// is a query stem. ascii reports that w has no byte ≥ 0x80.
func (s *Snippeter) matches(w string, ascii bool) bool {
	// The prefilter reads the first byte and the length of the normalised
	// form. A trimmed ASCII word has its length and begins with a letter or
	// digit, whose lower case is c|0x20; lowercasing a word with a byte
	// ≥ 0x80 may change both.
	var c byte
	if ascii {
		w = trimWord(w)
		if w == "" || len(w) < s.minLen {
			return false
		}
		c = w[0] | 0x20
	} else {
		w = strings.TrimFunc(w, notWordRune)
		norm := strings.ToLower(w)
		if norm == "" || len(norm) < s.minLen {
			return false
		}
		c = norm[0]
	}
	if !s.first[c] {
		return false
	}
	e := s.ix.words.lookup(w)
	for _, t := range s.stems {
		if t == e.norm || t == e.stem {
			return true
		}
	}
	return false
}

// wordStems is the word table's entry for a trimmed raw word: the word
// lowercased — its normalised form — and that form's Porter stem.
type wordStems struct{ norm, stem string }

// wordTable maps the trimmed raw words of paper text that snippets look up
// to their wordStems, filled on first lookup. Keyed by the raw word, a hit
// needs no lowercasing. Only Snippeter.matches looks words up, and only
// words of a paper's abstract or body that pass the query's prefilter,
// never query words, so the table is bounded by the vocabulary of the paper
// text, like the analyzer's surface-form table.
type wordTable struct {
	m sync.Map // trimmed raw word → *wordStems
}

// lookup returns the wordStems of the trimmed raw word w.
func (t *wordTable) lookup(w string) wordStems {
	if e, ok := t.m.Load(w); ok {
		return *e.(*wordStems)
	}
	// w is usually a substring of a paper's text: clone it so the table
	// holds only its own words.
	w = strings.Clone(w)
	norm := strings.ToLower(w)
	e, _ := t.m.LoadOrStore(w, &wordStems{norm: norm, stem: textproc.NewPorterStemmer().Stem(norm)})
	return *e.(*wordStems)
}

// byteClass sorts bytes for scan's in-place split: the ASCII bytes
// unicode.IsSpace accepts, which separate strings.Fields' words in ASCII
// text, the bytes ≥ 0x80 that end the in-place split, and the rest.
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

// trimWord strips the surrounding punctuation of a raw ASCII word: every
// byte but a letter or digit.
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

// notWordRune reports whether r is surrounding punctuation to strip from a
// raw word with a byte ≥ 0x80: neither a letter nor a digit, the runes
// textproc.AppendWords splits words at.
func notWordRune(r rune) bool { return !unicode.IsLetter(r) && !unicode.IsDigit(r) }

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
