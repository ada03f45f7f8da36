package contextset

import (
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
)

// BuildGoPubMedStyle reproduces the categorisation of GoPubMed, the only
// other context-hierarchy system the paper's §6 discusses: a paper belongs
// to a GO-term context iff the term's words occur in the paper's ABSTRACT
// (GoPubMed retrieved and categorised abstracts only; "categorization fully
// relies on the existence of GO term words in the abstracts"). It assigns
// no scores and no ranking — every member gets assignment strength 1 — so
// it doubles as a baseline showing why prestige scoring matters.
//
// MinWordFraction is the fraction of the term's distinct (stemmed) name
// words that must appear; GoPubMed's literal behaviour is 1.0.
func BuildGoPubMedStyle(a *corpus.Analyzer, onto *ontology.Ontology, minWordFraction float64) *ContextSet {
	if minWordFraction <= 0 || minWordFraction > 1 {
		minWordFraction = 1
	}
	tok := a.Tokenizer()
	c := a.Corpus()
	b := newBuilder(TextBased, onto, c.Len())

	// Precompute each paper's abstract word support.
	abstractWords := make([]map[string]bool, c.Len())
	for _, p := range c.Papers() {
		set := map[string]bool{}
		for _, id := range a.Tokens(p.ID).Section(corpus.SecAbstract) {
			set[a.Term(id)] = true
		}
		abstractWords[p.ID] = set
	}

	for _, term := range onto.TermIDs() {
		if onto.Level(term) < 2 {
			continue
		}
		words := tok.Terms(onto.Term(term).Name)
		if len(words) == 0 {
			continue
		}
		distinct := map[string]bool{}
		for _, w := range words {
			distinct[w] = true
		}
		need := int(float64(minWordFraction*float64(len(distinct))) + 0.9999)
		for _, p := range c.Papers() {
			have := 0
			for w := range distinct {
				if abstractWords[p.ID][w] {
					have++
				}
			}
			if have >= need {
				b.add(term, p.ID, 1)
			}
		}
	}
	return b.finish()
}

// AbstractCoverage returns the fraction of papers whose abstract contains
// at least one ontology term's full word set — the paper reports GoPubMed
// covers only 78% of PubMed abstracts this way.
func AbstractCoverage(cs *ContextSet, c *corpus.Corpus) float64 {
	if c.Len() == 0 {
		return 0
	}
	covered := map[corpus.PaperID]bool{}
	for _, ctx := range cs.Contexts() {
		for _, p := range cs.Papers(ctx) {
			covered[p] = true
		}
	}
	return float64(len(covered)) / float64(c.Len())
}
