package experiments

import (
	"io"

	"ctxsearch"
	"ctxsearch/internal/eval"
)

// ScalingRow summarises one corpus size of the scaling sweep.
type ScalingRow struct {
	Papers, Terms int
	// TextMinusCitation is the average precision advantage of the
	// text-based over the citation-based function at moderate thresholds,
	// on the text-based context set — Fig 5.1's headline number.
	TextMinusCitation float64
	// SepText/SepPattern/SepCitation are the mean separability SDs on the
	// pattern-based set (Fig 5.4's ordering).
	SepText, SepPattern, SepCitation float64
	// OutputReduction is the §1 claim's average output-size reduction.
	OutputReduction float64
}

// ScalingSweep re-runs the core metrics at several corpus sizes to show
// the findings are not artefacts of one scale. Terms scale at 1:5 with
// papers; queries at 1:10 (capped 120).
func ScalingSweep(sizes []int, seed int64, log io.Writer) ([]ScalingRow, error) {
	var out []ScalingRow
	for _, papers := range sizes {
		terms := papers / 5
		if terms < 30 {
			terms = 30
		}
		queries := papers / 10
		if queries > 120 {
			queries = 120
		}
		if queries < 10 {
			queries = 10
		}
		setup, err := NewSetup(Scale{Papers: papers, Terms: terms, Queries: queries, Seed: seed}, log)
		if err != nil {
			return nil, err
		}
		row := ScalingRow{Papers: papers, Terms: terms}

		fig := setup.Fig51()
		n := 0
		for i, pt := range fig.Series[0].Points { // citation (sorted first)
			if pt.Threshold >= 0.1 && pt.Threshold <= 0.3 {
				row.TextMinusCitation += fig.Series[1].Points[i].Avg - pt.Avg
				n++
			}
		}
		if n > 0 {
			row.TextMinusCitation /= float64(n)
		}

		row.SepText = meanSepSD(setup.TextOnPatSet)
		row.SepPattern = meanSepSD(setup.PatOnPatSet)
		row.SepCitation = meanSepSD(setup.CitOnPatSet)
		row.OutputReduction = setup.ClaimBaseline().AvgOutputReduction
		out = append(out, row)
	}
	return out, nil
}

// meanSepSD is the mean per-context separability SD of a score function.
func meanSepSD(scores *ctxsearch.Matrix) float64 {
	return mean(eval.SeparabilitySDs(scores, scores.Contexts()))
}
