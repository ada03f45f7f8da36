package corpus

import (
	"strings"
	"sync"

	"ctxsearch/internal/textproc"
)

// formTable memoises Tokenizer.Term per distinct raw word ("surface form")
// of the corpus: form → final token, or "" when the tokenizer drops the word
// (no token is empty, so "" is free to mean that). Lowercasing, the stopword
// test, the Porter stem and the minimum length collapse into one map lookup,
// which pays because a corpus has orders of magnitude fewer distinct forms
// than words; equal tokens share one string.
//
// Only analyzePaper writes it, so its size is bounded by the vocabulary of
// the paper text: query strings, ontology names and snippets go through the
// tokenizer directly and can never grow it.
type formTable struct {
	mu     sync.RWMutex
	tokens map[string]string // form → token or ""
	intern map[string]string // token → its one shared string
}

// appendTerms appends to dst the tokens tok.Terms would emit for the text
// whose raw split is words.
func (ft *formTable) appendTerms(dst []string, tok *textproc.Tokenizer, words []string) []string {
	ft.mu.RLock()
	for _, w := range words {
		term, ok := ft.tokens[w]
		if !ok {
			ft.mu.RUnlock()
			term = ft.add(tok, w)
			ft.mu.RLock()
		}
		if term != "" {
			dst = append(dst, term)
		}
	}
	ft.mu.RUnlock()
	return dst
}

// add resolves one unseen form through the tokenizer and records it. The
// form is cloned: it is a substring of a paper's text.
func (ft *formTable) add(tok *textproc.Tokenizer, form string) string {
	term, _ := tok.Term(form) // "" when dropped
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if ft.tokens == nil {
		ft.tokens = make(map[string]string)
		ft.intern = make(map[string]string)
	}
	if term != "" {
		if shared, ok := ft.intern[term]; ok {
			term = shared
		} else {
			term = strings.Clone(term)
			ft.intern[term] = term
		}
	}
	ft.tokens[strings.Clone(form)] = term
	return term
}
