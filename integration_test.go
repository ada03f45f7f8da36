package ctxsearch_test

import (
	"sync"
	"testing"

	"ctxsearch"
	"ctxsearch/internal/eval"
	"ctxsearch/internal/goldentest"
	"ctxsearch/internal/stats"
)

// The golden integration test pins the end-to-end behaviour of the whole
// pipeline for one fixed seed: exact structural counts (which must never
// drift silently) and the paper's ordering findings (which are the point
// of the system). If an intentional change shifts these, update the pins
// deliberately.

type golden struct {
	sys     *ctxsearch.System
	textSet *ctxsearch.ContextSet
	patSet  *ctxsearch.ContextSet
	text    *ctxsearch.Matrix
	cit     *ctxsearch.Matrix
	pat     *ctxsearch.Matrix
}

var (
	goldenOnce sync.Once
	goldenSt   *golden
	goldenErr  error
)

func getGolden(t *testing.T) *golden {
	t.Helper()
	goldenOnce.Do(func() {
		cfg := ctxsearch.DefaultConfig()
		cfg.Seed = 7
		cfg.Papers = 500
		cfg.OntologyTerms = 120
		sys, err := ctxsearch.NewSyntheticSystem(cfg)
		if err != nil {
			goldenErr = err
			return
		}
		st := &golden{sys: sys}
		st.textSet = sys.BuildTextContextSet()
		st.patSet = sys.BuildPatternContextSet()
		st.text = sys.ScoreText(st.textSet)
		st.cit = sys.ScoreCitation(st.patSet)
		st.pat = sys.ScorePattern(st.patSet)
		goldenSt = st
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenSt
}

func TestGoldenStructuralCounts(t *testing.T) {
	g := getGolden(t)
	// Exact pins for seed 7 / 500 papers / 120 terms. A drift here means
	// the generators or assignment changed behaviour.
	if got := g.sys.Ontology.Len(); got != 120 {
		t.Errorf("ontology terms = %d, want 120", got)
	}
	if got := g.sys.Corpus.Len(); got != 500 {
		t.Errorf("papers = %d, want 500", got)
	}
	textCtxs := len(g.textSet.Contexts())
	patCtxs := len(g.patSet.Contexts())
	if textCtxs == 0 || patCtxs == 0 {
		t.Fatalf("empty context sets: %d / %d", textCtxs, patCtxs)
	}
	// Both sets cover (nearly) every non-root term with evidence.
	evTerms := len(g.sys.Corpus.EvidenceTerms())
	if textCtxs < evTerms {
		t.Errorf("text contexts %d < evidence terms %d", textCtxs, evTerms)
	}
	t.Logf("pinned run: %d text contexts, %d pattern contexts, %d evidence terms",
		textCtxs, patCtxs, evTerms)
}

func TestGoldenSeparabilityOrdering(t *testing.T) {
	g := getGolden(t)
	meanSD := func(s *ctxsearch.Matrix) float64 {
		var sds []float64
		for i := range s.NumContexts() {
			vals := s.RunAt(i).Vals
			if len(vals) > 0 {
				sds = append(sds, stats.SeparabilitySD(vals, 10))
			}
		}
		return stats.Mean(sds)
	}
	textSD := meanSD(g.text)
	patSD := meanSD(g.pat)
	citSD := meanSD(g.cit)
	// The paper's central separability finding: text < pattern < citation.
	if !(textSD < patSD && patSD < citSD) {
		t.Fatalf("separability ordering violated: text %.2f, pattern %.2f, citation %.2f",
			textSD, patSD, citSD)
	}
}

func TestGoldenSearchDeterminism(t *testing.T) {
	g := getGolden(t)
	engine := g.sys.Engine(g.text)
	query := g.sys.Ontology.Term(g.text.Contexts()[0]).Name
	a := engine.Search(query, ctxsearch.SearchOptions{Limit: 10})
	if len(a) == 0 {
		t.Fatalf("no results for %q", query)
	}
	goldentest.Same(t, "nondeterministic ranking", engine.Search(query, ctxsearch.SearchOptions{Limit: 10}), a)
}

func TestGoldenPrecisionOrdering(t *testing.T) {
	g := getGolden(t)
	qs := eval.GenerateQueries(g.sys.Ontology, g.sys.Corpus, eval.QueryGenConfig{
		Seed: 5, NumQueries: 30, MinLevel: 3, ReplaceProb: 0.4, RequireEvidence: true,
	})
	if len(qs) == 0 {
		t.Fatal("no queries")
	}
	answers := make([]map[ctxsearch.PaperID]bool, len(qs))
	for i, q := range qs {
		answers[i] = eval.TrueAnswerSet(g.sys.Ontology, g.sys.Corpus, q.Target)
	}
	thresholds := []float64{0.15, 0.2, 0.25}
	textEngine := g.sys.Engine(g.text)
	citOnText := g.sys.ScoreCitation(g.textSet)
	citEngine := g.sys.Engine(citOnText)
	textCurve := eval.PrecisionCurve(textEngine, qs, answers, thresholds)
	citCurve := eval.PrecisionCurve(citEngine, qs, answers, thresholds)
	var textAvg, citAvg float64
	for i := range thresholds {
		textAvg += textCurve[i].Avg
		citAvg += citCurve[i].Avg
	}
	// The paper's Fig 5.1 finding: text-based prestige beats citation-based
	// at moderate thresholds.
	if textAvg <= citAvg {
		t.Fatalf("precision ordering violated: text %.3f ≤ citation %.3f", textAvg/3, citAvg/3)
	}
}

func TestGoldenOutputReduction(t *testing.T) {
	g := getGolden(t)
	engine := g.sys.Engine(g.text)
	reduced := 0
	checked := 0
	for _, ctx := range g.text.Contexts() {
		if checked >= 10 {
			break
		}
		query := g.sys.Ontology.Term(ctx).Name
		baseline := g.sys.BaselineTFIDF(query, 0, 0)
		if len(baseline) == 0 {
			continue
		}
		checked++
		if len(engine.Search(query, ctxsearch.SearchOptions{})) < len(baseline) {
			reduced++
		}
	}
	if checked == 0 {
		t.Fatal("no queries checked")
	}
	// The §1 claim: output shrinks for (at least most) queries.
	if reduced*2 < checked {
		t.Fatalf("output reduced for only %d/%d queries", reduced, checked)
	}
}
