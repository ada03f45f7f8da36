package corpus

import "ctxsearch/internal/textproc"

// SurfaceForms returns the size of the analyzer's surface-form table, for
// the external boundedness test.
func (a *Analyzer) SurfaceForms() int {
	a.forms.mu.RLock()
	defer a.forms.mu.RUnlock()
	return len(a.forms.tokens)
}

// TableTerms tokenizes text the way analyzePaper tokenizes a section:
// words resolved through the surface-form table.
func (a *Analyzer) TableTerms(text string) []string {
	return a.forms.appendTerms(nil, a.tok, textproc.AppendWords(nil, text))
}

// CachedWeights returns how many per-paper weight slots (per-section and
// whole-text together) the analyzer has filled.
func (a *Analyzer) CachedWeights() int {
	n := 0
	for i := range a.sectionW {
		if a.sectionW[i].Load() != nil {
			n++
		}
		if a.fullTextW[i].Load() != nil {
			n++
		}
	}
	return n
}
