// Package textproc provides the text-processing substrate used throughout
// the context-based search system: tokenization, stopword filtering and a
// full Porter stemmer.
//
// All ranking functions in the paper operate on term statistics produced by
// this package, so its behaviour is deliberately deterministic and
// dependency-free.
package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenizer converts raw text into normalised tokens. The zero value is not
// usable; construct with NewTokenizer.
type Tokenizer struct {
	stem      bool
	dropStops bool
	minLen    int
	stemmer   *PorterStemmer
	stops     map[string]struct{}
}

// TokenizerOption configures a Tokenizer.
type TokenizerOption func(*Tokenizer)

// WithStemming enables Porter stemming of each token.
func WithStemming() TokenizerOption { return func(t *Tokenizer) { t.stem = true } }

// WithStopwords enables dropping of English stopwords.
func WithStopwords() TokenizerOption { return func(t *Tokenizer) { t.dropStops = true } }

// WithMinLength drops tokens shorter than n runes (after normalisation).
func WithMinLength(n int) TokenizerOption { return func(t *Tokenizer) { t.minLen = n } }

// NewTokenizer returns a Tokenizer with the given options applied. With no
// options it lowercases and splits on non-alphanumeric boundaries only.
func NewTokenizer(opts ...TokenizerOption) *Tokenizer {
	t := &Tokenizer{minLen: 1, stemmer: NewPorterStemmer(), stops: stopwordSet}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Term normalises one raw word as produced by AppendWords — lowercase,
// stopword filter, stem, minimum length — and reports whether it survives.
// Terms applies it to every word, so a caller that memoises Term per
// distinct word reproduces Terms token for token.
func (t *Tokenizer) Term(word string) (string, bool) {
	w := strings.ToLower(word)
	if t.dropStops {
		if _, stop := t.stops[w]; stop {
			return "", false
		}
	}
	if t.stem {
		w = t.stemmer.Stem(w)
	}
	if len([]rune(w)) < t.minLen {
		return "", false
	}
	return w, true
}

// Terms splits text into normalised terms: the words AppendWords splits,
// each normalised by Term, dropping those Term drops. Hyphenated compounds
// are kept together when both sides are alphabetic ("co-citation" →
// "co-citation"), matching how biomedical index terms are written; all other
// punctuation splits. The terms reuse the split's array.
func (t *Tokenizer) Terms(text string) []string { return t.AppendTerms(nil, text) }

// AppendTerms appends Terms(text) to dst.
func (t *Tokenizer) AppendTerms(dst []string, text string) []string {
	words := AppendWords(dst, text)
	out := words[:len(dst)]
	for _, w := range words[len(dst):] {
		if term, ok := t.Term(w); ok {
			out = append(out, term)
		}
	}
	return out
}

// AppendWords appends the raw lexical split of text to dst: maximal runs of
// letters/digits, with single interior hyphens between letters preserved.
// Pure-ASCII text is split byte-wise into substrings of text (no per-word
// allocation); the first non-ASCII byte restarts the split on the rune path,
// which defines the behaviour.
func AppendWords(dst []string, text string) []string {
	base := len(dst)
	start := -1
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case c >= utf8.RuneSelf:
			return appendWordsRunes(dst[:base], text)
		case isASCIILetter(c) || (c >= '0' && c <= '9'):
			if start < 0 {
				start = i
			}
		case c == '-' && start >= 0 && i+1 < len(text) && isASCIILetter(text[i+1]) && isASCIILetter(text[i-1]):
			// keep interior hyphen
		default:
			if start >= 0 {
				dst = append(dst, text[start:i])
				start = -1
			}
		}
	}
	if start >= 0 {
		dst = append(dst, text[start:])
	}
	return dst
}

func isASCIILetter(c byte) bool { return (c|0x20) >= 'a' && (c|0x20) <= 'z' }

// appendWordsRunes is AppendWords over decoded runes, for text with any
// non-ASCII byte (invalid bytes decode to U+FFFD, a separator).
func appendWordsRunes(dst []string, text string) []string {
	runes := []rune(text)
	n := len(runes)
	start := -1
	flush := func(end int) {
		if start >= 0 && end > start {
			dst = append(dst, string(runes[start:end]))
		}
		start = -1
	}
	isWord := func(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }
	for i := 0; i < n; i++ {
		r := runes[i]
		switch {
		case isWord(r):
			if start < 0 {
				start = i
			}
		case r == '-' && start >= 0 && i+1 < n && unicode.IsLetter(runes[i+1]) && unicode.IsLetter(runes[i-1]):
			// keep interior hyphen
		default:
			flush(i)
		}
	}
	flush(n)
	return dst
}
