package contextset

import (
	"sort"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/par"
	"ctxsearch/internal/vector"
)

// buildTextBasedReference is the papers × contexts construction
// BuildTextBased replaced, kept as the differential reference: one map-keyed
// vector.CosineWithNorms per (paper, context) pair, over whole-text vectors
// rebuilt from the tokenizer alone (vector.FromTerms weighted by the
// analyzer's DF table), with each representative chosen by the map-form
// centroid.
func buildTextBasedReference(a *corpus.Analyzer, onto *ontology.Ontology, cfg Config) *ContextSet {
	c := a.Corpus()
	b := newBuilder(TextBased, onto, c.Len())
	vecs := referenceVectors(a)
	terms := make([]ontology.TermID, 0, len(c.EvidenceTerms()))
	repVecs := make(map[ontology.TermID]vector.Sparse)
	repNorms := make(map[ontology.TermID]float64)
	for _, term := range c.EvidenceTerms() {
		if onto.Term(term) == nil {
			continue
		}
		rep := chooseRepresentativeReference(vecs, c.EvidencePapers(term))
		repVecs[term] = vecs[rep]
		repNorms[term] = vecs[rep].Norm()
		terms = append(terms, term)
	}

	type cand struct {
		id  corpus.PaperID
		sim float64
	}
	members := make(map[ontology.TermID][]cand, len(terms))
	// Per-paper pass: threshold membership plus the paper's top-M contexts
	// (generic papers join the broad contexts they match best, even with
	// low absolute similarity).
	type ts struct {
		term ontology.TermID
		sim  float64
	}
	// Per-paper similarity rows computed in parallel, merged in paper order
	// so the result is identical to the serial construction.
	type paperRow struct {
		thresholded []ts
		top         []ts
	}
	papers := c.Papers()
	rows := make([]paperRow, len(papers))
	par.For(len(papers), cfg.Workers, func(i int) {
		pv := vecs[i]
		pn := pv.Norm()
		var row paperRow
		var best []ts
		for _, term := range terms {
			sim := vector.CosineWithNorms(repVecs[term], pv, repNorms[term], pn)
			if sim >= cfg.TextThreshold {
				row.thresholded = append(row.thresholded, ts{term, sim})
			} else if cfg.TopContextsPerPaper > 0 && sim > 0 {
				best = append(best, ts{term, sim})
			}
		}
		if cfg.TopContextsPerPaper > 0 && len(best) > 0 {
			sort.Slice(best, func(x, y int) bool {
				if best[x].sim != best[y].sim {
					return best[x].sim > best[y].sim
				}
				return best[x].term < best[y].term
			})
			m := cfg.TopContextsPerPaper
			if m > len(best) {
				m = len(best)
			}
			row.top = best[:m]
		}
		rows[i] = row
	})
	for i, p := range papers {
		for _, e := range rows[i].thresholded {
			members[e.term] = append(members[e.term], cand{p.ID, e.sim})
		}
		for _, e := range rows[i].top {
			members[e.term] = append(members[e.term], cand{p.ID, e.sim})
		}
	}

	for _, term := range terms {
		cands := members[term]
		if cfg.MaxPerContext > 0 && len(cands) > cfg.MaxPerContext {
			sort.Slice(cands, func(i, j int) bool {
				if cands[i].sim != cands[j].sim {
					return cands[i].sim > cands[j].sim
				}
				return cands[i].id < cands[j].id
			})
			cands = cands[:cfg.MaxPerContext]
		}
		for _, cd := range cands {
			b.add(term, cd.id)
		}
		// Evidence papers always belong to their context.
		for _, e := range c.EvidencePapers(term) {
			b.add(term, e)
		}
	}
	return b.finish()
}

// referenceVectors returns every paper's whole-text vector rebuilt from the
// tokenizer alone: vector.FromTerms over each section, weighted by the
// analyzer's DF table.
func referenceVectors(a *corpus.Analyzer) []vector.Sparse {
	c := a.Corpus()
	vecs := make([]vector.Sparse, c.Len())
	for i, p := range c.Papers() {
		tf := vector.New()
		for _, s := range corpus.Sections {
			tf.Add(vector.FromTerms(a.Tokenizer().Terms(p.SectionText(s))))
		}
		vecs[i] = a.DF().Weight(tf)
	}
	return vecs
}

// chooseRepresentativeReference is Representative on string-keyed vectors:
// the evidence paper with the highest cosine to vector.Centroid of the
// evidence (ties: lowest ID).
func chooseRepresentativeReference(vecs []vector.Sparse, evidence []corpus.PaperID) corpus.PaperID {
	if len(evidence) == 1 {
		return evidence[0]
	}
	evs := make([]vector.Sparse, len(evidence))
	for i, id := range evidence {
		evs[i] = vecs[id]
	}
	centroid := vector.Centroid(evs)
	best, bestSim := evidence[0], -1.0
	for i, id := range evidence {
		if sim := vector.Cosine(centroid, evs[i]); sim > bestSim {
			best, bestSim = id, sim
		}
	}
	return best
}
