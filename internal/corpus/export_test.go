package corpus

import "ctxsearch/internal/textproc"

// SurfaceForms returns the size of the analyzer's surface-form table — a
// frozen analyzer's, the one table that outlives construction — for the
// external boundedness test.
func (a *Analyzer) SurfaceForms() int {
	a.forms.mu.RLock()
	defer a.forms.mu.RUnlock()
	return len(a.forms.forms)
}

// TableTerms tokenizes text the way appendTokens tokenizes a section on a
// frozen analyzer — words resolved through its surface-form table — and
// reads the IDs back through the dictionary: "" for a token outside it.
func (a *Analyzer) TableTerms(text string) []string {
	ids := a.forms.appendIDs(nil, a.tok, textproc.AppendWords(nil, text))
	terms := make([]string, len(ids))
	for i, id := range ids {
		terms[i] = a.Term(id)
	}
	return terms
}

// FirstSeenTerms returns a tokenizer that resolves a text's words through one
// dictionary-less surface-form table, as an eager build worker does, and
// reads the IDs back through the table's own vocabulary. The table persists
// across calls.
func FirstSeenTerms(tok *textproc.Tokenizer) func(text string) []string {
	ft := new(formTable)
	return func(text string) []string {
		ids := ft.appendIDs(nil, tok, textproc.AppendWords(nil, text))
		terms := make([]string, len(ids))
		for i, id := range ids {
			terms[i] = ft.vocab[id]
		}
		return terms
	}
}
