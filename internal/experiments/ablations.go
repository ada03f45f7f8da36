package experiments

import (
	"ctxsearch"
	"ctxsearch/internal/citegraph"
	"ctxsearch/internal/eval"
	"ctxsearch/internal/prestige"
	"ctxsearch/internal/stats"
)

// TeleportAblation compares the paper's two PageRank teleport options E1
// and E2 (§3.1) on the pattern-based context set.
type TeleportAblation struct {
	// MeanSpearman is the mean per-context Spearman rank correlation
	// between E1 and E2 scores.
	MeanSpearman float64
	// MeanSDDiff is mean(separability SD under E1 − SD under E2).
	MeanSDDiff float64
	// Contexts evaluated.
	Contexts int
}

// AblateTeleport runs the E1-vs-E2 ablation.
func (s *Setup) AblateTeleport() TeleportAblation {
	mk := func(tp citegraph.Teleport) *ctxsearch.Matrix {
		// Clone the cached scorer: both teleport variants share the one
		// corpus-wide citation graph.
		scorer := s.Sys.CitationScorer().WithTeleport(tp)
		return prestige.Score(scorer, s.PatternSet, s.Sys.MinContextSize(), s.Sys.Config().BuildWorkers)
	}
	e1 := mk(citegraph.TeleportE1)
	e2 := mk(citegraph.TeleportE2)
	var out TeleportAblation
	var sumRho, sumSD float64
	// The citation function scores every context, so both matrices hold
	// the same runs, papers ascending.
	for i := range e1.NumContexts() {
		xs, ys := e1.RunAt(i).Vals, e2.RunAt(i).Vals
		if len(xs) < 3 {
			continue
		}
		sumRho += stats.Spearman(xs, ys)
		sumSD += stats.SeparabilitySD(xs, eval.ScoreBins) - stats.SeparabilitySD(ys, eval.ScoreBins)
		out.Contexts++
	}
	if out.Contexts > 0 {
		out.MeanSpearman = sumRho / float64(out.Contexts)
		out.MeanSDDiff = sumSD / float64(out.Contexts)
	}
	return out
}

// HITSAblation checks the claim (via [11]) that HITS authority and PageRank
// scores are highly correlated on citation graphs.
type HITSAblation struct {
	// GlobalSpearman correlates the two over the whole corpus graph.
	GlobalSpearman float64
	// MeanContextSpearman averages per-context correlations (contexts above
	// the size cutoff, induced subgraphs).
	MeanContextSpearman float64
	Contexts            int
}

// AblateHITS runs the HITS-vs-PageRank correlation ablation.
func (s *Setup) AblateHITS() HITSAblation {
	g := s.Sys.CitationScorer().Graph()
	pr := citegraph.PageRank(g, citegraph.TeleportE1)
	auth, _ := citegraph.HITS(g)
	var out HITSAblation
	out.GlobalSpearman = stats.Spearman(pr, auth)

	var sum float64
	for _, ctx := range s.PatternSet.ContextsWithMinSize(s.Sys.MinContextSize()) {
		papers := s.PatternSet.Papers(ctx)
		nodes := make([]int, len(papers))
		for i, p := range papers {
			nodes[i] = int(p)
		}
		sub, _ := g.Subgraph(nodes)
		if sub.Len() < 3 || sub.Edges() == 0 {
			continue
		}
		spr := citegraph.PageRank(sub, citegraph.TeleportE1)
		sauth, _ := citegraph.HITS(sub)
		sum += stats.Spearman(spr, sauth)
		out.Contexts++
	}
	if out.Contexts > 0 {
		out.MeanContextSpearman = sum / float64(out.Contexts)
	}
	return out
}

// CutoffAblation sweeps the small-context exclusion rule the paper applies
// (contexts ≤ 100 papers dropped): how the number of scored contexts and
// the citation function's mean separability SD respond to the cutoff.
type CutoffAblation struct {
	Cutoffs  []int
	Contexts []int
	// MeanCitSD is the citation function's mean separability SD over the
	// surviving contexts (small contexts produce degenerate PageRank score
	// sets, which is why the paper excludes them).
	MeanCitSD []float64
}

// AblateCutoff sweeps MinContextSize over the pattern-based set.
func (s *Setup) AblateCutoff(cutoffs []int) CutoffAblation {
	out := CutoffAblation{Cutoffs: cutoffs}
	for _, cut := range cutoffs {
		ctxs := s.PatternSet.ContextsWithMinSize(cut)
		// Restrict the precomputed citation scores to surviving contexts.
		var sds []float64
		n := 0
		for _, ctx := range ctxs {
			if vals := s.CitOnPatSet.Run(ctx).Vals; len(vals) > 0 {
				sds = append(sds, stats.SeparabilitySD(vals, eval.ScoreBins))
				n++
			}
		}
		out.Contexts = append(out.Contexts, n)
		out.MeanCitSD = append(out.MeanCitSD, mean(sds))
	}
	return out
}

// CrossContextAblation measures the §7 future-work extension: weighting
// cross-context citations instead of omitting them.
type CrossContextAblation struct {
	// MeanScoreShift is the mean absolute per-paper score change the
	// extension introduces.
	MeanScoreShift float64
	// MeanSDBase and MeanSDExt compare separability with and without it.
	MeanSDBase, MeanSDExt float64
	Contexts              int
}

// AblateCrossContext runs the extension with Related=0.6/Unrelated=0.1.
func (s *Setup) AblateCrossContext() CrossContextAblation {
	base := s.Sys.CitationScorer()
	ext := base.WithCrossContext(prestige.CrossContextWeights{Enabled: true, Related: 0.6, Unrelated: 0.1})
	var out CrossContextAblation
	var shift, sdB, sdE float64
	n := 0
	for _, ctx := range s.PatternSet.ContextsWithMinSize(s.Sys.MinContextSize()) {
		vb := make([]float64, s.PatternSet.Size(ctx))
		ve := make([]float64, len(vb))
		base.ScoreContext(s.PatternSet, ctx, vb)
		ext.ScoreContext(s.PatternSet, ctx, ve)
		// Summed in paper order, so the shift has the same bits every run.
		var d float64
		for i, b := range vb {
			if diff := ve[i] - b; diff >= 0 {
				d += diff
			} else {
				d -= diff
			}
		}
		if len(vb) == 0 {
			continue
		}
		shift += d / float64(len(vb))
		sdB += stats.SeparabilitySD(vb, eval.ScoreBins)
		sdE += stats.SeparabilitySD(ve, eval.ScoreBins)
		n++
	}
	if n > 0 {
		out.MeanScoreShift = shift / float64(n)
		out.MeanSDBase = sdB / float64(n)
		out.MeanSDExt = sdE / float64(n)
		out.Contexts = n
	}
	return out
}

// SparsenessByLevel supports the paper's §5 explanation: per-context
// citation-graph sparseness grows as contexts get deeper/smaller. Two
// diagnostics per level: the mean edge sparseness of the induced graph and
// the mean fraction of papers with no in-context citation edge at all
// (which is what actually starves PageRank).
type SparsenessRow struct {
	EdgeSparseness, IsolationFraction float64
}

// SparsenessByLevel computes both diagnostics per context level.
func (s *Setup) SparsenessByLevel() map[int]SparsenessRow {
	scorer := s.Sys.CitationScorer()
	type acc struct {
		sp, iso float64
		n       int
	}
	sums := map[int]*acc{}
	for _, ctx := range s.PatternSet.ContextsWithMinSize(s.Sys.MinContextSize()) {
		l := s.Sys.Ontology.Level(ctx)
		a := sums[l]
		if a == nil {
			a = &acc{}
			sums[l] = a
		}
		a.sp += scorer.ContextSparseness(s.PatternSet, ctx)
		a.iso += scorer.IsolationFraction(s.PatternSet, ctx)
		a.n++
	}
	out := map[int]SparsenessRow{}
	for l, a := range sums {
		out[l] = SparsenessRow{
			EdgeSparseness:    a.sp / float64(a.n),
			IsolationFraction: a.iso / float64(a.n),
		}
	}
	return out
}
