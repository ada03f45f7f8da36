package experiments

import (
	"fmt"
	"sort"
	"strings"

	"ctxsearch"
	"ctxsearch/internal/eval"
	"ctxsearch/internal/search"
)

// Thresholds swept by the precision figures, matching the paper's x-axis.
var PrecisionThresholds = []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5}

// KPercents are the top-k% values of Figure 5.3.
var KPercents = []float64{0.05, 0.10, 0.15, 0.20}

// Levels are the context levels the paper slices on (root = level 1).
var Levels = []int{3, 5, 7}

// PrecisionFigure is the data behind Figures 5.1 and 5.2: per score
// function, the average and median precision at each relevancy threshold.
type PrecisionFigure struct {
	Name   string
	Series []PrecisionSeries
}

// PrecisionSeries is one score function's curve.
type PrecisionSeries struct {
	Function string
	Points   []eval.PrecisionPoint
}

// Fig51 reproduces Figure 5.1: precision of the text-based vs the
// citation-based score function on the text-based context paper set,
// against AC-answer sets, across relevancy thresholds.
func (s *Setup) Fig51() PrecisionFigure {
	return s.precisionFigure("Fig 5.1 precision, text-based context paper set",
		map[string]*ctxsearch.Matrix{"text": s.TextOnTextSet, "citation": s.CitOnTextSet})
}

// Fig52 reproduces Figure 5.2: pattern-based vs citation-based precision on
// the pattern-based context paper set.
func (s *Setup) Fig52() PrecisionFigure {
	return s.precisionFigure("Fig 5.2 precision, pattern-based context paper set",
		map[string]*ctxsearch.Matrix{"pattern": s.PatOnPatSet, "citation": s.CitOnPatSet})
}

func (s *Setup) precisionFigure(name string, funcs map[string]*ctxsearch.Matrix) PrecisionFigure {
	fig := PrecisionFigure{Name: name}
	answers := make([]map[ctxsearch.PaperID]bool, len(s.Queries))
	for i := range s.Queries {
		answers[i] = s.answerFor(i)
	}
	fnNames := make([]string, 0, len(funcs))
	for fn := range funcs {
		fnNames = append(fnNames, fn)
	}
	sort.Strings(fnNames)
	for _, fn := range fnNames {
		engine := s.Sys.Engine(funcs[fn])
		pts := eval.PrecisionCurve(engine, s.Queries, answers, PrecisionThresholds)
		fig.Series = append(fig.Series, PrecisionSeries{Function: fn, Points: pts})
	}
	return fig
}

// OverlapFigure is the data behind Figure 5.3: for each score-function
// pair, the average top-k% overlapping ratio per context level.
type OverlapFigure struct {
	Name string
	// Pairs → level → one value per KPercents entry.
	Pairs map[string]map[int][]float64
}

// Fig53 reproduces Figure 5.3 on the pattern-based context paper set (the
// text-based set lacks pattern scores, exactly as in the paper).
func (s *Setup) Fig53() OverlapFigure {
	sizes := ContextSizes(s.PatternSet)
	onto := s.Sys.Ontology
	return OverlapFigure{
		Name: "Fig 5.3 avg top-k% overlapping ratio per context level",
		Pairs: map[string]map[int][]float64{
			"text-citation":    eval.OverlapByLevel(onto, s.TextOnPatSet, s.CitOnPatSet, sizes, Levels, KPercents),
			"text-pattern":     eval.OverlapByLevel(onto, s.TextOnPatSet, s.PatOnPatSet, sizes, Levels, KPercents),
			"citation-pattern": eval.OverlapByLevel(onto, s.CitOnPatSet, s.PatOnPatSet, sizes, Levels, KPercents),
		},
	}
}

// SeparabilityFigure is the data behind Figures 5.4–5.7: % of contexts per
// separability-SD bin, per series.
type SeparabilityFigure struct {
	Name string
	// BinEdges are the lower edges of the SD bins.
	BinEdges []float64
	// Series name → percentages per bin.
	Series map[string][]float64
	// MeanSD per series (summary diagnostic, not in the paper's plots).
	MeanSD map[string]float64
}

func sdBinEdges() []float64 {
	var edges []float64
	for e := 0.0; e < eval.SDMax; e += eval.SDBinWidth {
		edges = append(edges, e)
	}
	return edges
}

// Fig54 reproduces Figure 5.4: the overall separability histograms of both
// context paper sets.
func (s *Setup) Fig54() (textSet, patternSet SeparabilityFigure) {
	mk := func(name string, series map[string]*ctxsearch.Matrix) SeparabilityFigure {
		fig := SeparabilityFigure{Name: name, BinEdges: sdBinEdges(), Series: map[string][]float64{}, MeanSD: map[string]float64{}}
		for fn, scores := range series {
			sds := eval.SeparabilitySDs(scores, scores.Contexts())
			fig.Series[fn] = eval.SeparabilityHistogram(sds)
			fig.MeanSD[fn] = mean(sds)
		}
		return fig
	}
	textSet = mk("Fig 5.4a separability, text-based context paper set",
		map[string]*ctxsearch.Matrix{"text": s.TextOnTextSet, "citation": s.CitOnTextSet})
	patternSet = mk("Fig 5.4b separability, pattern-based context paper set",
		map[string]*ctxsearch.Matrix{"text": s.TextOnPatSet, "citation": s.CitOnPatSet, "pattern": s.PatOnPatSet})
	return textSet, patternSet
}

// perLevelSeparability renders Figures 5.5–5.7: one function's SD histogram
// per context level.
func (s *Setup) perLevelSeparability(name string, scores *ctxsearch.Matrix) SeparabilityFigure {
	fig := SeparabilityFigure{Name: name, BinEdges: sdBinEdges(), Series: map[string][]float64{}, MeanSD: map[string]float64{}}
	for _, level := range Levels {
		ctxs := eval.ContextsAtLevel(s.Sys.Ontology, scores, level)
		sds := eval.SeparabilitySDs(scores, ctxs)
		key := fmt.Sprintf("level %d", level)
		fig.Series[key] = eval.SeparabilityHistogram(sds)
		fig.MeanSD[key] = mean(sds)
	}
	return fig
}

// Fig55 reproduces Figure 5.5 (text-based scores per level, text set).
func (s *Setup) Fig55() SeparabilityFigure {
	return s.perLevelSeparability("Fig 5.5 text-based score separability per level", s.TextOnTextSet)
}

// Fig56 reproduces Figure 5.6 (pattern-based scores per level, pattern set).
func (s *Setup) Fig56() SeparabilityFigure {
	return s.perLevelSeparability("Fig 5.6 pattern-based score separability per level", s.PatOnPatSet)
}

// Fig57 reproduces Figure 5.7 (citation-based scores per level, pattern set).
func (s *Setup) Fig57() SeparabilityFigure {
	return s.perLevelSeparability("Fig 5.7 citation-based score separability per level", s.CitOnPatSet)
}

// ClaimResult quantifies the paper's §1 headline claim versus the plain
// keyword baseline: context-based search reduces output size (up to 70% in
// [2]) and improves accuracy (up to 50%).
type ClaimResult struct {
	// AvgOutputReduction is mean (1 − |ctx results| / |baseline results|).
	AvgOutputReduction float64
	// MaxOutputReduction is the best per-query reduction.
	MaxOutputReduction float64
	// CtxPrecision is the context engine's mean top-20 precision.
	CtxPrecision float64
	// PubMedPrecision is the paper's actual comparator: PubMed-style
	// keyword matching listed by descending PMID, no relevance ranking.
	PubMedPrecision float64
	// TFIDFPrecision is the stronger modern baseline (whole-corpus TF-IDF
	// ranking), reported for honesty.
	TFIDFPrecision float64
	// AccuracyGain = CtxPrecision/PubMedPrecision − 1 (the paper's claim is
	// against PubMed).
	AccuracyGain float64
	// Queries counted (those with non-empty baseline output).
	Queries int
}

// ClaimBaseline reproduces the headline claim using the text-scored
// text-based context set against the whole-corpus TF-IDF baseline, scored
// on the AC-answer sets (the paper's methodology; generator ground truth
// backstops queries whose AC set is empty).
func (s *Setup) ClaimBaseline() ClaimResult {
	engine := s.Sys.Engine(s.TextOnTextSet)
	var res ClaimResult
	var sumRed float64
	const topN = 20
	for i, q := range s.Queries {
		baseline := search.BaselineTFIDF(s.Sys.Index(), q.Text, 0, 0)
		if len(baseline) == 0 {
			continue
		}
		pubmed := search.BaselinePubMed(s.Sys.Index(), q.Text)
		ctxResults := engine.Search(q.Text, search.Options{})
		red := 1 - float64(len(ctxResults))/float64(len(baseline))
		if red < 0 {
			red = 0
		}
		sumRed += red
		if red > res.MaxOutputReduction {
			res.MaxOutputReduction = red
		}
		truth := s.answerFor(i)
		var ctxTop, tfidfTop, pubmedTop []ctxsearch.PaperID
		for j, r := range ctxResults {
			if j >= topN {
				break
			}
			ctxTop = append(ctxTop, r.Doc)
		}
		for j, h := range baseline {
			if j >= topN {
				break
			}
			tfidfTop = append(tfidfTop, h.Doc)
		}
		for j, id := range pubmed {
			if j >= topN {
				break
			}
			pubmedTop = append(pubmedTop, id)
		}
		res.CtxPrecision += eval.Precision(ctxTop, truth)
		res.TFIDFPrecision += eval.Precision(tfidfTop, truth)
		res.PubMedPrecision += eval.Precision(pubmedTop, truth)
		res.Queries++
	}
	if res.Queries > 0 {
		res.AvgOutputReduction = sumRed / float64(res.Queries)
		res.CtxPrecision /= float64(res.Queries)
		res.TFIDFPrecision /= float64(res.Queries)
		res.PubMedPrecision /= float64(res.Queries)
	}
	if res.PubMedPrecision > 0 {
		res.AccuracyGain = res.CtxPrecision/res.PubMedPrecision - 1
	}
	return res
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// Summary condenses a precision figure into the comparison the paper
// states in prose: the average precision advantage of the first function
// over the second at moderate thresholds (0.1–0.3).
func (f PrecisionFigure) Summary() string {
	if len(f.Series) != 2 {
		return ""
	}
	adv := 0.0
	n := 0
	for i, pt := range f.Series[0].Points {
		if pt.Threshold >= 0.1 && pt.Threshold <= 0.3 {
			adv += pt.Avg - f.Series[1].Points[i].Avg
			n++
		}
	}
	if n > 0 {
		adv /= float64(n)
	}
	return fmt.Sprintf("%s minus %s avg precision at t∈[0.1,0.3]: %+.3f",
		f.Series[0].Function, f.Series[1].Function, adv)
}

// sortedKeys returns map keys sorted (render helper).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sprintRow formats floats compactly.
func sprintRow(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%6.3f", v)
	}
	return strings.Join(parts, " ")
}
