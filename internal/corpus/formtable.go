package corpus

import (
	"strings"
	"sync"

	"ctxsearch/internal/textproc"
	"ctxsearch/internal/vector"
)

// dropped marks in the form table a form the tokenizer drops.
const dropped int32 = -2

// formTable memoises Tokenizer.Term per distinct raw word ("surface form")
// of the corpus: form → token ID, or dropped. Lowercasing, the stopword test,
// the Porter stem, the minimum length and the dictionary lookup collapse into
// one map lookup, which pays because a corpus has orders of magnitude fewer
// distinct forms than words.
//
// A table with a dictionary (a frozen analyzer's) resolves tokens to its IDs,
// a token outside it to NoTerm. One without (each eager build worker's) gives
// each new token the next ID and keeps its string in vocab; the build merges
// the workers' vocabularies into the dictionary afterwards.
//
// Only appendTokens writes it, so its size is bounded by the vocabulary of
// the paper text: query strings, ontology names and snippets go through the
// tokenizer directly and can never grow it. The lock lets a frozen
// analyzer's concurrent token fills share its table; a build worker's table
// is its own, so there the lock is never contended.
type formTable struct {
	mu    sync.RWMutex
	forms map[string]int32
	ids   map[string]int32 // token → ID, without a dictionary
	vocab []string         // ID → token, without a dictionary
	dict  *vector.DF
}

// appendIDs appends to dst the IDs of the tokens tok.Terms would emit for
// the text whose raw split is words.
func (ft *formTable) appendIDs(dst []int32, tok *textproc.Tokenizer, words []string) []int32 {
	ft.mu.RLock()
	for _, w := range words {
		id, ok := ft.forms[w]
		if !ok {
			ft.mu.RUnlock()
			id = ft.add(tok, w)
			ft.mu.RLock()
		}
		if id != dropped {
			dst = append(dst, id)
		}
	}
	ft.mu.RUnlock()
	return dst
}

// add resolves one unseen form through the tokenizer and records it. Form
// and token are cloned: they are substrings of a paper's text.
func (ft *formTable) add(tok *textproc.Tokenizer, form string) int32 {
	term, _ := tok.Term(form) // "" when dropped
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if id, ok := ft.forms[form]; ok {
		return id
	}
	if ft.forms == nil {
		ft.forms = make(map[string]int32)
		ft.ids = make(map[string]int32)
	}
	id := dropped
	if term != "" {
		var ok bool
		if ft.dict != nil {
			if id, ok = ft.dict.ID(term); !ok {
				id = NoTerm
			}
		} else if id, ok = ft.ids[term]; !ok {
			id = int32(len(ft.vocab))
			ft.vocab = append(ft.vocab, strings.Clone(term))
			ft.ids[ft.vocab[id]] = id
		}
	}
	ft.forms[strings.Clone(form)] = id
	return id
}
