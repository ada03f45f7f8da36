package corpus

import "ctxsearch/internal/textproc"

// SurfaceForms returns the size of the analyzer's surface-form table, for
// the external boundedness test.
func (a *Analyzer) SurfaceForms() int {
	a.forms.mu.RLock()
	defer a.forms.mu.RUnlock()
	return len(a.forms.forms)
}

// TableTerms tokenizes text the way appendTokens tokenizes a section —
// words resolved through the surface-form table — and reads the IDs back
// through the table's own vocabulary (an eager analyzer's).
func (a *Analyzer) TableTerms(text string) []string {
	ids := a.forms.appendIDs(nil, a.tok, textproc.AppendWords(nil, text))
	a.forms.mu.RLock()
	defer a.forms.mu.RUnlock()
	terms := make([]string, len(ids))
	for i, id := range ids {
		terms[i] = a.forms.vocab[id]
	}
	return terms
}
