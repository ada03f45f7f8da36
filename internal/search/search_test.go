package search

import (
	"testing"

	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/prestige"
)

type fixture struct {
	onto   *ontology.Ontology
	c      *corpus.Corpus
	ix     *index.Index
	cs     *contextset.ContextSet
	scores *prestige.Matrix
	engine *Engine
}

var cached *fixture

func buildFixture(t testing.TB) *fixture {
	t.Helper()
	if cached == nil {
		cached = newFixture(t, 6, corpus.DefaultGenConfig(250))
	}
	return cached
}

// newFixture builds an eager engine over a generated ontology and corpus.
func newFixture(t testing.TB, ontoSeed int64, gcfg corpus.GenConfig) *fixture {
	t.Helper()
	o, err := ontology.Generate(ontology.GenConfig{Seed: ontoSeed, NumTerms: 60, MaxDepth: 6, SecondParentProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(o, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	ix, err := index.BuildWorkers(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	cs := contextset.BuildTextBased(ix, o, contextset.DefaultConfig())
	scorer := prestige.NewTextScorer(a, prestige.DefaultTextWeights())
	scores := prestige.PropagateMax(o, prestige.Score(scorer, cs, 0, 1))
	return &fixture{
		onto: o, c: c, ix: ix, cs: cs, scores: scores,
		engine: NewEngine(ix, scores, DefaultWeights()),
	}
}

// queryForSomeContext returns a scored context's term name to use as query.
func queryForSomeContext(t *testing.T, f *fixture) (string, ontology.TermID) {
	t.Helper()
	for _, ctx := range f.scores.Contexts() {
		if f.cs.Size(ctx) >= 5 {
			return f.onto.Term(ctx).Name, ctx
		}
	}
	t.Fatal("no usable context")
	return "", ""
}

func TestSelectContexts(t *testing.T) {
	f := buildFixture(t)
	name, ctx := queryForSomeContext(t, f)
	sel := f.engine.SelectContexts(name, Options{})
	if len(sel) == 0 {
		t.Fatalf("no contexts selected for %q", name)
	}
	found := false
	for _, cs := range sel {
		if cs.Context == ctx {
			found = true
		}
		if cs.Score <= 0 || cs.Score > 1 {
			t.Fatalf("context score out of range: %v", cs)
		}
	}
	if !found {
		t.Fatalf("exact-name query did not select its context %s: %v", ctx, sel)
	}
	// Scores sorted descending.
	for i := 1; i < len(sel); i++ {
		if sel[i].Score > sel[i-1].Score {
			t.Fatal("selected contexts not sorted")
		}
	}
	// Exact name must rank its context first or near-first (ties possible
	// with sibling names).
	if sel[0].Score < 0.99 && sel[0].Context != ctx {
		// The queried context must at least share the top score.
		if sel[0].Score > f.engine.scoreFor(ctx, name) {
			t.Logf("note: another context outranked the exact match: %v", sel[0])
		}
	}
}

// scoreFor is a test helper exposing the selection score of one context.
func (e *Engine) scoreFor(ctx ontology.TermID, query string) float64 {
	for _, cs := range e.SelectContexts(query, Options{MaxContexts: 1 << 20, MinContextMatch: 1e-9}) {
		if cs.Context == ctx {
			return cs.Score
		}
	}
	return 0
}

func TestSelectContextsEmptyQuery(t *testing.T) {
	f := buildFixture(t)
	if sel := f.engine.SelectContexts("", Options{}); sel != nil {
		t.Fatalf("empty query selected %v", sel)
	}
	if sel := f.engine.SelectContexts("qqqzzzxxx totally alien", Options{}); len(sel) != 0 {
		t.Fatalf("alien query selected %v", sel)
	}
}

func TestSelectContextsMaxContexts(t *testing.T) {
	f := buildFixture(t)
	name, _ := queryForSomeContext(t, f)
	sel := f.engine.SelectContexts(name, Options{MaxContexts: 2, MinContextMatch: 0.01})
	if len(sel) > 2 {
		t.Fatalf("cap violated: %v", sel)
	}
}

func TestSearchBasics(t *testing.T) {
	f := buildFixture(t)
	name, _ := queryForSomeContext(t, f)
	results := f.engine.Search(name, Options{})
	if len(results) == 0 {
		t.Fatal("no results")
	}
	for i, r := range results {
		if r.Relevancy < 0 || r.Relevancy > 1.0000001 {
			t.Fatalf("relevancy out of range: %+v", r)
		}
		if i > 0 && r.Relevancy > results[i-1].Relevancy {
			t.Fatal("results not sorted by relevancy")
		}
		// Relevancy must equal the weighted combination.
		w := DefaultWeights()
		want := w.Prestige*r.Prestige + w.Matching*r.Match
		if diff := r.Relevancy - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("relevancy %v != %v", r.Relevancy, want)
		}
		// Every result must belong to its winning context.
		if !f.cs.Contains(r.Context, r.Doc) {
			t.Fatalf("result %d not in winning context %s", r.Doc, r.Context)
		}
	}
}

func TestSearchThresholdAndLimit(t *testing.T) {
	f := buildFixture(t)
	name, _ := queryForSomeContext(t, f)
	all := f.engine.Search(name, Options{})
	if len(all) < 2 {
		t.Skip("not enough results to test limits")
	}
	limited := f.engine.Search(name, Options{Limit: 1})
	if len(limited) != 1 || limited[0].Doc != all[0].Doc {
		t.Fatalf("limit broken: %v vs %v", limited, all[0])
	}
	thresh := all[0].Relevancy + 0.01
	strict := f.engine.Search(name, Options{Threshold: thresh})
	if len(strict) != 0 {
		t.Fatalf("threshold above max returned %v", strict)
	}
	mid := all[len(all)/2].Relevancy
	partial := f.engine.Search(name, Options{Threshold: mid})
	for _, r := range partial {
		if r.Relevancy < mid {
			t.Fatalf("threshold leak: %v < %v", r.Relevancy, mid)
		}
	}
}

func TestSearchReducesOutputSize(t *testing.T) {
	// The headline claim of [2]: context-based search output is smaller
	// than whole-corpus keyword search output because only papers in
	// selected contexts participate.
	f := buildFixture(t)
	name, _ := queryForSomeContext(t, f)
	ctxResults := f.engine.Search(name, Options{})
	baseline := BaselineTFIDF(f.ix, name, 0, 0)
	if len(ctxResults) > len(baseline) {
		t.Fatalf("context search (%d) larger than baseline (%d)", len(ctxResults), len(baseline))
	}
}

func TestBaselinePubMedOrder(t *testing.T) {
	f := buildFixture(t)
	name, _ := queryForSomeContext(t, f)
	ids := BaselinePubMed(f.ix, name)
	if len(ids) == 0 {
		t.Fatal("baseline returned nothing")
	}
	for i := 1; i < len(ids); i++ {
		if f.c.Paper(ids[i]).PMID > f.c.Paper(ids[i-1]).PMID {
			t.Fatal("PubMed baseline not in descending PMID order")
		}
	}
}

func TestSearchNoContexts(t *testing.T) {
	f := buildFixture(t)
	if got := f.engine.Search("qqqzzz unknown words", Options{}); got != nil {
		t.Fatalf("alien query returned %v", got)
	}
}
