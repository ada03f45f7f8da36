package eval

import (
	"cmp"
	"slices"
	"strings"
	"testing"

	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/prestige"
	"ctxsearch/internal/search"
)

type fixture struct {
	onto   *ontology.Ontology
	c      *corpus.Corpus
	a      *corpus.Analyzer
	ix     *index.Index
	cs     *contextset.ContextSet
	scores *prestige.Matrix
	engine *search.Engine
}

var cached *fixture

func buildFixture(t *testing.T) *fixture {
	t.Helper()
	if cached != nil {
		return cached
	}
	o, err := ontology.Generate(ontology.GenConfig{Seed: 8, NumTerms: 60, MaxDepth: 7, SecondParentProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(250))
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	ix, err := index.BuildWorkers(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	cs := contextset.BuildTextBased(ix, o, contextset.DefaultConfig())
	scores := prestige.Score(prestige.NewTextScorer(a, prestige.DefaultTextWeights()), cs, 0, 1)
	cached = &fixture{
		onto: o, c: c, a: a, ix: ix, cs: cs, scores: scores,
		engine: search.NewEngine(ix, scores, search.DefaultWeights()),
	}
	return cached
}

// scoreMap is a hand-written prestige matrix: context → paper → score.
type scoreMap map[ontology.TermID]map[corpus.PaperID]float64

// matrixOf lays a scoreMap out as a Matrix: a context set whose runs are
// exactly the map's papers, bound through contextset.FromFrozen, and the
// map's scores as its column.
func matrixOf(t *testing.T, s scoreMap) *prestige.Matrix {
	t.Helper()
	onto := ontology.New()
	f := &contextset.Frozen{Offsets: []int32{0}}
	var vals, rowMax []float64
	for _, ctx := range sortedKeys(s) {
		if err := onto.Add(ontology.Term{ID: ctx, Name: string(ctx)}); err != nil {
			t.Fatal(err)
		}
		rowMax = append(rowMax, 0)
		for _, d := range sortedKeys(s[ctx]) {
			v := s[ctx][d]
			f.Docs, f.Scores, vals = append(f.Docs, d), append(f.Scores, 1), append(vals, v)
			rowMax[len(rowMax)-1] = max(rowMax[len(rowMax)-1], v)
			f.Papers = max(f.Papers, int(d)+1)
		}
		f.Ctxs, f.Offsets = append(f.Ctxs, ctx), append(f.Offsets, int32(len(f.Docs)))
	}
	if err := onto.Build(); err != nil {
		t.Fatal(err)
	}
	cs, err := contextset.FromFrozen(onto, f)
	if err != nil {
		t.Fatal(err)
	}
	m, err := prestige.FromColumn(cs, f.Ctxs, vals, rowMax)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func TestGenerateQueries(t *testing.T) {
	f := buildFixture(t)
	qs := GenerateQueries(f.onto, f.c, DefaultQueryGenConfig())
	if len(qs) == 0 {
		t.Fatal("no queries generated")
	}
	for _, q := range qs {
		if q.Text == "" {
			t.Fatal("empty query text")
		}
		tm := f.onto.Term(q.Target)
		if tm == nil {
			t.Fatalf("query target %s unknown", q.Target)
		}
		if f.onto.Level(q.Target) < 3 {
			t.Fatalf("target %s too shallow", q.Target)
		}
		if len(f.c.EvidencePapers(q.Target)) == 0 {
			t.Fatalf("target %s has no evidence", q.Target)
		}
	}
	// Determinism.
	qs2 := GenerateQueries(f.onto, f.c, DefaultQueryGenConfig())
	if len(qs) != len(qs2) || qs[0] != qs2[0] {
		t.Fatal("query generation not deterministic")
	}
	// At least some queries must differ textually from their term name
	// (paraphrasing happened).
	diff := 0
	for _, q := range qs {
		if !strings.EqualFold(q.Text, f.onto.Term(q.Target).Name) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("no query was paraphrased")
	}
}

func TestGenerateQueriesEdgeCases(t *testing.T) {
	f := buildFixture(t)
	if qs := GenerateQueries(f.onto, f.c, QueryGenConfig{NumQueries: 0}); qs != nil {
		t.Fatal("zero queries must return nil")
	}
	// MinLevel beyond the hierarchy: no candidates.
	cfg := DefaultQueryGenConfig()
	cfg.MinLevel = 99
	if qs := GenerateQueries(f.onto, f.c, cfg); qs != nil {
		t.Fatal("impossible MinLevel must return nil")
	}
}

func TestTrueAnswerSet(t *testing.T) {
	f := buildFixture(t)
	qs := GenerateQueries(f.onto, f.c, DefaultQueryGenConfig())
	target := qs[0].Target
	ans := TrueAnswerSet(f.onto, f.c, target)
	if len(ans) == 0 {
		t.Fatal("empty true answer set for an evidence-backed term")
	}
	// Every evidence paper of the target is in the answer set.
	for _, e := range f.c.EvidencePapers(target) {
		if !ans[e] {
			t.Fatalf("evidence paper %d missing from true answers", e)
		}
	}
	// Papers in the set must actually carry the target or a descendant.
	desc := map[ontology.TermID]bool{target: true}
	for _, d := range f.onto.Descendants(target) {
		desc[d] = true
	}
	for id := range ans {
		ok := false
		for _, tp := range f.c.Paper(id).Topics {
			if desc[tp] {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("paper %d in answer set without matching topic", id)
		}
	}
}

func TestACBuilder(t *testing.T) {
	f := buildFixture(t)
	b := NewACBuilder(f.ix, prestige.GraphFromCorpus(f.c), DefaultACConfig())
	qs := GenerateQueries(f.onto, f.c, DefaultQueryGenConfig())
	nonEmpty := 0
	betterThanRandom := 0
	checked := 0
	for _, q := range qs[:20] {
		ac := b.Build(q.Text)
		if len(ac) == 0 {
			continue
		}
		nonEmpty++
		// The AC set should be enriched in true answers versus the corpus
		// base rate — that's what makes it usable as a pseudo-answer set.
		truth := TrueAnswerSet(f.onto, f.c, q.Target)
		if len(truth) == 0 {
			continue
		}
		checked++
		inAC := 0
		for id := range ac {
			if truth[id] {
				inAC++
			}
		}
		acRate := float64(inAC) / float64(len(ac))
		baseRate := float64(len(truth)) / float64(f.c.Len())
		if acRate > baseRate {
			betterThanRandom++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("all AC sets empty")
	}
	if checked > 0 && betterThanRandom*2 < checked {
		t.Fatalf("AC sets enriched only %d/%d times", betterThanRandom, checked)
	}
}

func TestACBuilderUnmatchableQuery(t *testing.T) {
	f := buildFixture(t)
	b := NewACBuilder(f.ix, prestige.GraphFromCorpus(f.c), DefaultACConfig())
	if ac := b.Build("zzz qqq totally alien words"); len(ac) != 0 {
		t.Fatalf("alien query produced AC set of %d", len(ac))
	}
}

func TestPrecision(t *testing.T) {
	ans := map[corpus.PaperID]bool{1: true, 2: true}
	if got := Precision([]corpus.PaperID{1, 2, 3, 4}, ans); got != 0.5 {
		t.Fatalf("precision = %v", got)
	}
	if got := Precision(nil, ans); got != 0 {
		t.Fatalf("empty precision = %v", got)
	}
	if got := Precision([]corpus.PaperID{1}, ans); got != 1 {
		t.Fatalf("perfect precision = %v", got)
	}
}

func TestPrecisionCurve(t *testing.T) {
	f := buildFixture(t)
	qs := GenerateQueries(f.onto, f.c, QueryGenConfig{Seed: 1, NumQueries: 10, MinLevel: 3, ReplaceProb: 0.3, RequireEvidence: true})
	answers := make([]map[corpus.PaperID]bool, len(qs))
	for i, q := range qs {
		answers[i] = TrueAnswerSet(f.onto, f.c, q.Target)
	}
	thresholds := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	curve := PrecisionCurve(f.engine, qs, answers, thresholds)
	if len(curve) != len(thresholds) {
		t.Fatalf("curve has %d points", len(curve))
	}
	for i, pt := range curve {
		if pt.Avg < 0 || pt.Avg > 1 || pt.Median < 0 || pt.Median > 1 {
			t.Fatalf("precision out of range: %+v", pt)
		}
		if pt.Threshold != thresholds[i] {
			t.Fatalf("threshold mismatch: %+v", pt)
		}
		// Empty counts grow (weakly) with threshold.
		if i > 0 && pt.Empty < curve[i-1].Empty {
			t.Fatalf("empty counts not monotone: %+v after %+v", pt, curve[i-1])
		}
	}
}

func TestTopKOverlapRatio(t *testing.T) {
	s1 := matrixOf(t, scoreMap{"GO:1": {0: 1.0, 1: 0.8, 2: 0.6, 3: 0.2}})
	s2 := matrixOf(t, scoreMap{"GO:1": {0: 0.9, 1: 0.1, 2: 0.95, 3: 0.5}})
	// top-2 of s1 = {0,1}; top-2 of s2 = {2,0} → overlap 1/2.
	if got := TopKOverlapRatio(s1, s2, "GO:1", 2); got != 0.5 {
		t.Fatalf("overlap = %v", got)
	}
	// Identical functions overlap fully.
	if got := TopKOverlapRatio(s1, s1, "GO:1", 2); got != 1 {
		t.Fatalf("self overlap = %v", got)
	}
	if got := TopKOverlapRatio(s1, s2, "GO:404", 2); got != 0 {
		t.Fatalf("unknown ctx overlap = %v", got)
	}
	if got := TopKOverlapRatio(s1, s2, "GO:1", 0); got != 0 {
		t.Fatalf("k=0 overlap = %v", got)
	}
}

func TestTopKOverlapTies(t *testing.T) {
	// s1 has a tie at the k-th score: top-1 includes both papers; the
	// denominator becomes min(|PS1|, |PS2|) = 1 per §2.
	s1 := matrixOf(t, scoreMap{"GO:1": {0: 1.0, 1: 1.0, 2: 0.1}})
	s2 := matrixOf(t, scoreMap{"GO:1": {0: 1.0, 1: 0.5, 2: 0.1}})
	got := TopKOverlapRatio(s1, s2, "GO:1", 1)
	if got != 1 {
		t.Fatalf("tie overlap = %v, want 1 (ties included, denominator min)", got)
	}
}

func TestOverlapByLevel(t *testing.T) {
	f := buildFixture(t)
	sizes := map[ontology.TermID]int{}
	for _, ctx := range f.scores.Contexts() {
		sizes[ctx] = f.cs.Size(ctx)
	}
	// Compare the text scores against themselves: all overlaps must be 1
	// wherever contexts exist.
	res := OverlapByLevel(f.onto, f.scores, f.scores, sizes, []int{3, 5}, []float64{0.05, 0.2})
	for level, row := range res {
		ctxs := ContextsAtLevel(f.onto, f.scores, level)
		if len(ctxs) == 0 {
			continue
		}
		for _, v := range row {
			if v < 0.999 {
				t.Fatalf("self overlap at level %d = %v", level, v)
			}
		}
	}
}

func TestSeparability(t *testing.T) {
	f := buildFixture(t)
	cfg := DefaultSeparabilityConfig()
	sds := SeparabilitySDs(f.scores, f.scores.Contexts(), cfg)
	if len(sds) == 0 {
		t.Fatal("no SDs computed")
	}
	for _, sd := range sds {
		if sd < 0 || sd > 30.01 {
			t.Fatalf("SD out of range: %v", sd)
		}
	}
	hist := SeparabilityHistogram(sds, cfg)
	if len(hist) != 8 { // 40/5
		t.Fatalf("histogram bins = %d", len(hist))
	}
	var total float64
	for _, p := range hist {
		total += p
	}
	if total < 99.99 || total > 100.01 {
		t.Fatalf("histogram sums to %v", total)
	}
}

func TestSeparabilityDegenerate(t *testing.T) {
	if got := SeparabilityHistogram(nil, SeparabilityConfig{ScoreBins: 10, SDBinWidth: 0, SDMax: 0}); got != nil {
		t.Fatal("degenerate config must return nil")
	}
	s := matrixOf(t, scoreMap{"GO:1": {}})
	if sds := SeparabilitySDs(s, []ontology.TermID{"GO:1"}, DefaultSeparabilityConfig()); len(sds) != 0 {
		t.Fatal("empty context must be skipped")
	}
}

func TestContextsAtLevel(t *testing.T) {
	f := buildFixture(t)
	for _, level := range []int{3, 5} {
		for _, ctx := range ContextsAtLevel(f.onto, f.scores, level) {
			if f.onto.Level(ctx) != level {
				t.Fatalf("context %s at wrong level", ctx)
			}
		}
	}
}
