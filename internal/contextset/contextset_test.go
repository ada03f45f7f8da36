package contextset

import (
	"slices"
	"testing"

	"ctxsearch/internal/bitset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/pattern"
)

// fixture builds a generated ontology + corpus big enough for assignment to
// be meaningful but fast.
func fixture(t *testing.T) (*ontology.Ontology, *corpus.Corpus, *corpus.Analyzer, *pattern.PosIndex) {
	t.Helper()
	o, err := ontology.Generate(ontology.GenConfig{Seed: 4, NumTerms: 60, MaxDepth: 6, SecondParentProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(250))
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	return o, c, a, pattern.NewPosIndex(a)
}

func TestBuildTextBased(t *testing.T) {
	o, c, a, _ := fixture(t)
	cs := BuildTextBased(must(index.BuildWorkers(a, 0)), o, 0)
	if cs.Kind() != TextBased {
		t.Fatal("kind wrong")
	}
	ctxs := cs.Contexts()
	if len(ctxs) == 0 {
		t.Fatal("no contexts built")
	}
	for _, ctx := range ctxs {
		rep, ok := Representative(a, ctx)
		if !ok {
			t.Fatalf("context %s has no representative", ctx)
		}
		if !cs.Contains(ctx, rep) {
			t.Fatalf("representative %d not a member of %s", rep, ctx)
		}
		// Evidence papers are always members.
		for _, e := range c.EvidencePapers(ctx) {
			if !cs.Contains(ctx, e) {
				t.Fatalf("evidence paper %d not a member of %s", e, ctx)
			}
		}
		// Text-based contexts have no decay.
		if cs.Decay(ctx) != 1 {
			t.Fatalf("text-based context %s has decay", ctx)
		}
	}
}

func TestTextBasedThresholdMonotone(t *testing.T) {
	o, _, a, _ := fixture(t)
	ix := must(index.BuildWorkers(a, 0))
	csLoose := buildTextBased(ix, o, 0.05, topContextsPerPaper, 0)
	csStrict := buildTextBased(ix, o, 0.5, topContextsPerPaper, 0)
	totalLoose, totalStrict := 0, 0
	for _, ctx := range csLoose.Contexts() {
		totalLoose += csLoose.Size(ctx)
	}
	for _, ctx := range csStrict.Contexts() {
		totalStrict += csStrict.Size(ctx)
	}
	if totalStrict > totalLoose {
		t.Fatalf("stricter threshold produced more members: %d > %d", totalStrict, totalLoose)
	}
}

func TestBuildPatternBased(t *testing.T) {
	o, c, _, ix := fixture(t)
	cs := BuildPatternBased(pattern.NewMemo(ix, o), o, 0)
	if cs.Kind() != PatternBased {
		t.Fatal("kind wrong")
	}
	if len(cs.Contexts()) == 0 {
		t.Fatal("no contexts built")
	}
	// Evidence papers are members of their term's context.
	for _, term := range c.EvidenceTerms() {
		for _, e := range c.EvidencePapers(term) {
			if !cs.Contains(term, e) {
				t.Fatalf("evidence paper %d missing from %s", e, term)
			}
		}
	}
}

func TestPatternBasedDescendantFolding(t *testing.T) {
	o, _, _, ix := fixture(t)
	cs := BuildPatternBased(pattern.NewMemo(ix, o), o, 0)
	// Every non-root context's papers must be contained in each of its
	// non-root parents (descendant folding is transitive bottom-up).
	for _, ctx := range cs.Contexts() {
		if _, inherited := cs.InheritedFrom(ctx); inherited {
			continue // inherited sets flow downward instead
		}
		for _, parent := range o.Parents(ctx) {
			if o.Level(parent) < 2 {
				continue
			}
			if _, parentInherited := cs.InheritedFrom(parent); parentInherited {
				continue
			}
			for _, p := range cs.Papers(ctx) {
				if !cs.Contains(parent, p) {
					t.Fatalf("paper %d in %s missing from parent %s", p, ctx, parent)
				}
			}
		}
	}
}

func TestPatternBasedInheritance(t *testing.T) {
	o, _, _, ix := fixture(t)
	cs := BuildPatternBased(pattern.NewMemo(ix, o), o, 0)
	sawInherited := false
	for _, ctx := range cs.Contexts() {
		anc, inherited := cs.InheritedFrom(ctx)
		if !inherited {
			continue
		}
		sawInherited = true
		d := cs.Decay(ctx)
		if d <= 0 || d > 1 {
			t.Fatalf("decay of %s = %v, want (0,1]", ctx, d)
		}
		if !slices.Contains(o.Ancestors(ctx), anc) {
			t.Fatalf("%s inherited from non-ancestor %s", ctx, anc)
		}
		// Inherited paper set equals the origin's current set size-wise at
		// minimum (origin may have grown later only via its own folding,
		// which runs before inheritance).
		if cs.Size(ctx) == 0 {
			t.Fatalf("inherited context %s still empty", ctx)
		}
	}
	// With a 60-term ontology and 5 evidence papers per used term, some
	// terms have no patterns — inheritance must trigger somewhere.
	if !sawInherited {
		t.Log("no context inherited papers (acceptable but unusual for this fixture)")
	}
}

func TestContextsWithMinSize(t *testing.T) {
	o, _, a, _ := fixture(t)
	cs := BuildTextBased(must(index.BuildWorkers(a, 0)), o, 0)
	all := cs.Contexts()
	big := cs.ContextsWithMinSize(10)
	if len(big) > len(all) {
		t.Fatal("filter grew the set")
	}
	for _, ctx := range big {
		if cs.Size(ctx) <= 10 {
			t.Fatalf("context %s has %d papers, expected > 10", ctx, cs.Size(ctx))
		}
	}
}

func TestContextsOf(t *testing.T) {
	o, c, a, _ := fixture(t)
	cs := BuildTextBased(must(index.BuildWorkers(a, 0)), o, 0)
	// Any evidence paper must list its term among its contexts.
	term := c.EvidenceTerms()[0]
	e := c.EvidencePapers(term)[0]
	found := false
	for _, ctx := range cs.ContextsOf(e) {
		if ctx == term {
			found = true
		}
	}
	if !found {
		t.Fatalf("ContextsOf(%d) misses %s", e, term)
	}
}

func TestKindString(t *testing.T) {
	if TextBased.String() != "text-based" || PatternBased.String() != "pattern-based" {
		t.Fatal("kind names wrong")
	}
	if Kind(7).String() == "" {
		t.Fatal("unknown kind must stringify")
	}
}

func TestPaperSetIsCopy(t *testing.T) {
	o, _, a, _ := fixture(t)
	cs := BuildTextBased(must(index.BuildWorkers(a, 0)), o, 0)
	ctx := cs.Contexts()[0]
	var set bitset.Set
	set.UnionWith(cs.PaperBitset(ctx))
	before := cs.Size(ctx)
	for _, k := range cs.Papers(ctx) {
		set[k>>6] &^= 1 << (k & 63)
	}
	if cs.Size(ctx) != before || !cs.Contains(ctx, cs.Papers(ctx)[0]) {
		t.Fatal("PaperBitset leaked internal state")
	}
}

func TestParallelConstructionMatchesSerial(t *testing.T) {
	o, _, a, ix := fixture(t)
	tix := must(index.BuildWorkers(a, 0))
	ts, tp := BuildTextBased(tix, o, 1), BuildTextBased(tix, o, 4)
	requireSameFrozen(t, "text", ts.Freeze(), tp.Freeze())
	ps, pp := BuildPatternBased(pattern.NewMemo(ix, o), o, 1), BuildPatternBased(pattern.NewMemo(ix, o), o, 4)
	requireSameFrozen(t, "pattern", ps.Freeze(), pp.Freeze())
}

// must returns v, panicking on err: the fixtures' corpora always index.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
