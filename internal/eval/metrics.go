package eval

import (
	"slices"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/prestige"
	"ctxsearch/internal/search"
	"ctxsearch/internal/stats"
)

// Precision returns |S ∩ R| / |S| for a result set S and answer set R; 0
// for an empty result set (the paper's convention: queries returning
// nothing at high thresholds contribute precision 0 to averages).
func Precision(results []corpus.PaperID, answer map[corpus.PaperID]bool) float64 {
	if len(results) == 0 {
		return 0
	}
	hit := 0
	for _, id := range results {
		if answer[id] {
			hit++
		}
	}
	return float64(hit) / float64(len(results))
}

// PrecisionPoint is one point of a precision-vs-threshold curve.
type PrecisionPoint struct {
	Threshold float64
	// Avg and Median aggregate per-query precision; Empty counts queries
	// returning no results at this threshold (they average in as 0, the
	// effect the paper discusses at high t).
	Avg, Median float64
	Empty       int
}

// PrecisionCurve sweeps relevancy thresholds over the engine's results for
// every query, scoring against per-query answer sets. answers[i] is the
// answer set of queries[i].
func PrecisionCurve(e *search.Engine, queries []Query, answers []map[corpus.PaperID]bool, thresholds []float64) []PrecisionPoint {
	out := make([]PrecisionPoint, 0, len(thresholds))
	// Run each query once at threshold 0 and filter locally per threshold —
	// identical results, one search per query.
	type qr struct {
		results []search.Result
		answer  map[corpus.PaperID]bool
	}
	runs := make([]qr, len(queries))
	for i, q := range queries {
		runs[i] = qr{e.Search(q.Text, search.Options{}), answers[i]}
	}
	for _, t := range thresholds {
		var precs []float64
		empty := 0
		for _, r := range runs {
			var ids []corpus.PaperID
			for _, res := range r.results {
				if res.Relevancy >= t {
					ids = append(ids, res.Doc)
				}
			}
			if len(ids) == 0 {
				empty++
			}
			precs = append(precs, Precision(ids, r.answer))
		}
		out = append(out, PrecisionPoint{
			Threshold: t,
			Avg:       stats.Mean(precs),
			Median:    stats.Median(precs),
			Empty:     empty,
		})
	}
	return out
}

// TopKOverlapRatio implements §2: the overlap of the two functions' top-k
// paper sets in one context, with ties at the k-th score included and the
// denominator switching to min(|PS1|, |PS2|) when tie inclusion grew a set.
func TopKOverlapRatio(s1, s2 *prestige.Matrix, ctx ontology.TermID, k int) float64 {
	if k <= 0 {
		return 0
	}
	t1 := s1.Run(ctx).TopK(k)
	t2 := s2.Run(ctx).TopK(k)
	if len(t1) == 0 || len(t2) == 0 {
		return 0
	}
	set1 := make(map[corpus.PaperID]bool, len(t1))
	for _, id := range t1 {
		set1[id] = true
	}
	inter := 0
	for _, id := range t2 {
		if set1[id] {
			inter++
		}
	}
	den := k
	if len(t1) > k || len(t2) > k {
		den = len(t1)
		if len(t2) < den {
			den = len(t2)
		}
	}
	if den == 0 {
		return 0
	}
	return float64(inter) / float64(den)
}

// OverlapByLevel averages the top-k% overlapping ratio of two score
// functions over the contexts at each requested level. kPercents are
// fractions (0.05 = top 5%); the absolute k per context is
// max(1, ⌈k%·context size⌉) — the paper uses percentages because low-level
// contexts are much smaller than high-level ones.
func OverlapByLevel(onto *ontology.Ontology, s1, s2 *prestige.Matrix, sizes map[ontology.TermID]int, levels []int, kPercents []float64) map[int][]float64 {
	byLevel := make(map[int][]ontology.TermID)
	in2 := s2.Contexts()
	for _, ctx := range s1.Contexts() {
		if _, ok := slices.BinarySearch(in2, ctx); !ok {
			continue
		}
		l := onto.Level(ctx)
		byLevel[l] = append(byLevel[l], ctx)
	}
	out := make(map[int][]float64, len(levels))
	for _, level := range levels {
		ctxs := byLevel[level]
		row := make([]float64, len(kPercents))
		if len(ctxs) == 0 {
			out[level] = row
			continue
		}
		for ki, kp := range kPercents {
			var sum float64
			for _, ctx := range ctxs {
				n := sizes[ctx]
				k := int(float64(kp*float64(n)) + 0.9999)
				if k < 1 {
					k = 1
				}
				sum += TopKOverlapRatio(s1, s2, ctx, k)
			}
			row[ki] = sum / float64(len(ctxs))
		}
		out[level] = row
	}
	return out
}

// The §5.2 separability binning: each context's scores fall into ScoreBins
// equal score ranges, and the per-context standard deviations into a
// histogram over [0, SDMax] in steps of SDBinWidth (paper: 10 ranges; 0–40
// in steps of 5).
const (
	ScoreBins  = 10
	SDBinWidth = 5.0
	SDMax      = 40.0
)

// SeparabilitySDs computes the per-context separability standard deviation
// of a score function over the given contexts.
func SeparabilitySDs(s *prestige.Matrix, ctxs []ontology.TermID) []float64 {
	out := make([]float64, 0, len(ctxs))
	for _, ctx := range ctxs {
		vals := s.Run(ctx).Vals
		if len(vals) == 0 {
			continue
		}
		out = append(out, stats.SeparabilitySD(vals, ScoreBins))
	}
	return out
}

// SeparabilityHistogram converts per-context SDs into the paper's Figure
// 5.4–5.7 series: the percentage of contexts whose SD falls into each
// SDBinWidth-wide bin of [0, SDMax].
func SeparabilityHistogram(sds []float64) []float64 {
	counts := stats.Histogram(sds, int(SDMax/SDBinWidth), 0, SDMax)
	return stats.Percentages(counts)
}

// ContextsAtLevel filters scored contexts to one hierarchy level.
func ContextsAtLevel(onto *ontology.Ontology, s *prestige.Matrix, level int) []ontology.TermID {
	var out []ontology.TermID
	for _, ctx := range s.Contexts() {
		if onto.Level(ctx) == level {
			out = append(out, ctx)
		}
	}
	return out
}
