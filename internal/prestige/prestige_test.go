package prestige

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"ctxsearch/internal/citegraph"
	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/pattern"
)

type fixture struct {
	onto *ontology.Ontology
	c    *corpus.Corpus
	a    *corpus.Analyzer
	ix   *pattern.PosIndex
	text *contextset.ContextSet
	pat  *contextset.ContextSet
}

var cachedFixture *fixture

// buildFixture constructs (once) a generated corpus with both context paper
// sets; prestige tests share it because construction dominates runtime.
func buildFixture(t *testing.T) *fixture {
	t.Helper()
	if cachedFixture != nil {
		return cachedFixture
	}
	o, err := ontology.Generate(ontology.GenConfig{Seed: 5, NumTerms: 70, MaxDepth: 7, SecondParentProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	ix := pattern.NewPosIndex(a)
	cfg := contextset.DefaultConfig()
	cachedFixture = &fixture{
		onto: o, c: c, a: a, ix: ix,
		text: contextset.BuildTextBased(must(index.BuildWorkers(a, 0)), o, cfg),
		pat:  contextset.BuildPatternBased(ix, a, o, cfg, pattern.DefaultConfig()),
	}
	return cachedFixture
}

// scoreRun scores one context into a fresh run over its members; ok is
// the scorer's verdict.
func scoreRun(sc Scorer, cs *contextset.ContextSet, ctx ontology.TermID) (r Run, ok bool) {
	r.Docs = cs.Papers(ctx)
	r.Vals = make([]float64, len(r.Docs))
	return r, sc.ScoreContext(cs, ctx, r.Vals)
}

func inRange01(t *testing.T, name string, r Run) {
	t.Helper()
	var max float64
	for i, v := range r.Vals {
		if v < 0 || v > 1.0000001 {
			t.Fatalf("%s: score of %d out of range: %v", name, r.Docs[i], v)
		}
		if v > max {
			max = v
		}
	}
	if len(r.Vals) > 0 && max < 0.999999 {
		t.Fatalf("%s: max score %v, want 1 after normalisation", name, max)
	}
}

// mapScores is the map form of a score matrix: context → paper → score.
type mapScores map[ontology.TermID]map[corpus.PaperID]float64

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// matrixOf lays a map form out as a Matrix: a context set whose runs are
// exactly the map's papers, bound through contextset.FromFrozen, and the
// map's scores as its column.
func matrixOf(t testing.TB, s mapScores) *Matrix {
	t.Helper()
	onto := ontology.New()
	f := &contextset.Frozen{Offsets: []int32{0}}
	var vals []float64
	for _, ctx := range sortedKeys(s) {
		if err := onto.Add(ontology.Term{ID: ctx, Name: string(ctx)}); err != nil {
			t.Fatal(err)
		}
		for _, d := range sortedKeys(s[ctx]) {
			f.Docs, vals = append(f.Docs, d), append(vals, s[ctx][d])
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
	m, err := FromColumn(cs, f.Ctxs, vals)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCitationScorer(t *testing.T) {
	f := buildFixture(t)
	s := NewCitationScorer(f.c, citegraph.PageRankOpts{})
	if s.Name() != "citation" {
		t.Fatal("name wrong")
	}
	scored := 0
	for _, ctx := range f.pat.ContextsWithMinSize(10) {
		r, ok := scoreRun(s, f.pat, ctx)
		if !ok {
			t.Fatalf("citation scorer declined context %s", ctx)
		}
		inRange01(t, string(ctx), r)
		scored++
	}
	if scored == 0 {
		t.Fatal("no contexts scored")
	}
}

func TestCitationScorerUsesOnlyInContextEdges(t *testing.T) {
	// Hand-built: papers 0,1,2 in context; paper 3 outside cites 2 heavily.
	// In-context, paper 1 is cited by 0 and 2; paper 2 gets no in-context
	// citations, so 1 must outrank 2 regardless of 3's out-of-context vote.
	papers := []*corpus.Paper{
		{ID: 0, Title: "t zero", Abstract: "a", Body: "b", Authors: []string{"x"}, Topics: []ontology.TermID{"GO:2"}, Evidence: true},
		{ID: 1, Title: "t one", Abstract: "a", Body: "b", Authors: []string{"x"}, References: []corpus.PaperID{0}, Topics: []ontology.TermID{"GO:2"}},
		{ID: 2, Title: "t two", Abstract: "a", Body: "b", Authors: []string{"x"}, References: []corpus.PaperID{1, 0}, Topics: []ontology.TermID{"GO:2"}},
		{ID: 3, Title: "t three", Abstract: "a", Body: "b", Authors: []string{"x"}, References: []corpus.PaperID{2}},
	}
	// 0 ← 1, 0 ← 2, 1 ← 2 in-context; 2 ← 3 crosses the boundary.
	c, err := corpus.NewCorpus(papers)
	if err != nil {
		t.Fatal(err)
	}
	o := ontology.New()
	_ = o.Add(ontology.Term{ID: "GO:1", Name: "root"})
	_ = o.Add(ontology.Term{ID: "GO:2", Name: "ctx", Parents: []ontology.TermID{"GO:1"}})
	if err := o.Build(); err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	cs := contextset.BuildTextBased(must(index.BuildWorkers(a, 0)), o, contextset.Config{TextThreshold: 2}) // only evidence
	// Manually verify context membership via evidence + threshold: context
	// has only paper 0. Extend membership by lowering threshold instead:
	cs = contextset.BuildTextBased(must(index.BuildWorkers(a, 0)), o, contextset.Config{TextThreshold: 0.01})
	if !cs.Contains("GO:2", 1) || !cs.Contains("GO:2", 2) {
		t.Skip("fixture too dissimilar for text assignment; skipping")
	}
	s := NewCitationScorer(c, citegraph.PageRankOpts{})
	r, _ := scoreRun(s, cs, "GO:2")
	if r.Get(0) < r.Get(2) == false {
		t.Fatalf("paper 0 (2 in-context citations) must outrank paper 2 (0 in-context): %v", r)
	}
	if cs.Contains("GO:2", 3) {
		t.Fatal("paper 3 unexpectedly in context")
	}
}

func TestTextScorer(t *testing.T) {
	f := buildFixture(t)
	s := NewTextScorer(f.a, DefaultTextWeights())
	if s.Name() != "text" {
		t.Fatal("name wrong")
	}
	scored := 0
	for _, ctx := range f.text.ContextsWithMinSize(10) {
		r, ok := scoreRun(s, f.text, ctx)
		if !ok {
			t.Fatalf("text context %s must have a representative", ctx)
		}
		inRange01(t, string(ctx), r)
		rep, _ := contextset.Representative(f.a, ctx)
		if r.Get(rep) != 1 {
			t.Fatalf("representative must score 1, got %v", r.Get(rep))
		}
		scored++
	}
	if scored == 0 {
		t.Fatal("no contexts scored")
	}
	// A pattern-based context is scored where its term has evidence papers,
	// so a representative, and declined where it has none.
	var scoredPat, declined int
	for _, ctx := range f.pat.Contexts() {
		_, hasRep := contextset.Representative(f.a, ctx)
		r, ok := scoreRun(s, f.pat, ctx)
		if ok != hasRep {
			t.Fatalf("pattern context %s: scored %v, has a representative %v", ctx, ok, hasRep)
		}
		if ok {
			inRange01(t, string(ctx), r)
			scoredPat++
		} else {
			declined++
		}
	}
	if scoredPat == 0 || declined == 0 {
		t.Fatalf("pattern set: %d contexts scored, %d declined; the fixture needs both", scoredPat, declined)
	}
}

func TestTextScorerSimilarityComponents(t *testing.T) {
	papers := []*corpus.Paper{
		{ID: 0, Title: "zinc finger binding", Abstract: "zinc finger study", Body: "binding assay", IndexTerms: []string{"zinc"}, Authors: []string{"ann chen", "bob lee"}, References: nil},
		{ID: 1, Title: "zinc finger binding", Abstract: "zinc finger study", Body: "binding assay", IndexTerms: []string{"zinc"}, Authors: []string{"ann chen", "bob lee"}, References: nil},
		{ID: 2, Title: "steel corrosion", Abstract: "alloys", Body: "metallurgy text", IndexTerms: []string{"steel"}, Authors: []string{"zed quo"}, References: nil},
		{ID: 3, Title: "third paper", Abstract: "misc", Body: "misc", Authors: []string{"ann chen", "carol wu"}},
		{ID: 4, Title: "fourth paper", Abstract: "misc", Body: "misc", Authors: []string{"carol wu", "dave xu"}},
	}
	c, err := corpus.NewCorpus(papers)
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	s := NewTextScorer(a, DefaultTextWeights())
	// Identical twins must be more similar than unrelated papers.
	b := s.bind(0)
	defer b.release()
	if b.similarity(1) <= b.similarity(2) {
		t.Fatalf("twin sim %v ≤ unrelated sim %v", b.similarity(1), b.similarity(2))
	}
	// Author overlap: papers 0 and 1 share all authors → L0 = 1.
	authors := authorSets(c)
	if got := authorJaccard(authors[0], authors[1]); got != 1 {
		t.Fatalf("authorJaccard twins = %v", got)
	}
	// Level-1: paper 0 (ann chen) and paper 4 (carol wu) bridge via paper 3.
	l1 := s.levelOneOverlap(0, 4, authors[0], authors[4])
	if l1 <= 0 {
		t.Fatalf("level-1 overlap = %v, want > 0", l1)
	}
	// Self similarity of the representative.
	if b.similarity(0) != 1 {
		t.Fatal("self similarity must be 1")
	}
}

func TestReferenceSim(t *testing.T) {
	papers := []*corpus.Paper{
		{ID: 0, Title: "a", Abstract: "a", Body: "a", Authors: []string{"x"}},
		{ID: 1, Title: "b", Abstract: "b", Body: "b", Authors: []string{"x"}},
		{ID: 2, Title: "c", Abstract: "c", Body: "c", Authors: []string{"x"}, References: []corpus.PaperID{0, 1}},
		{ID: 3, Title: "d", Abstract: "d", Body: "d", Authors: []string{"x"}, References: []corpus.PaperID{0, 1}},
		{ID: 4, Title: "e", Abstract: "e", Body: "e", Authors: []string{"x"}, References: []corpus.PaperID{2, 3}},
	}
	c, err := corpus.NewCorpus(papers)
	if err != nil {
		t.Fatal(err)
	}
	s := NewTextScorer(corpus.NewAnalyzerWorkers(c, 0), DefaultTextWeights())
	// 2 and 3 share both references (bib coupling 1) and are co-cited by 4
	// (co-citation 1) → SimReferences = 1.
	b := s.bind(3)
	if got := b.referenceSim(2); got < 0.999 {
		t.Fatalf("referenceSim(2) against 3 = %v", got)
	}
	b.release()
	b = s.bind(4)
	defer b.release()
	if got := b.referenceSim(0); got != 0 {
		t.Fatalf("referenceSim(0) against 4 = %v", got)
	}
}

func TestPatternScorer(t *testing.T) {
	f := buildFixture(t)
	s := NewPatternScorer(f.ix, f.onto, pattern.DefaultConfig(), pattern.DefaultMatchConfig())
	if s.Name() != "pattern" {
		t.Fatal("name wrong")
	}
	scored := 0
	for _, ctx := range f.pat.ContextsWithMinSize(10) {
		r, ok := scoreRun(s, f.pat, ctx)
		if !ok {
			t.Fatalf("pattern scorer declined context %s", ctx)
		}
		inRange01(t, string(ctx), r)
		scored++
		if scored >= 10 {
			break // plenty; pattern scoring is the slow path
		}
	}
	if scored == 0 {
		t.Fatal("no contexts scored")
	}
	// Pattern sets must be cached.
	if len(s.sets) == 0 {
		t.Fatal("pattern set cache empty")
	}
}

func TestScoreAllAppliesDecay(t *testing.T) {
	f := buildFixture(t)
	s := NewCitationScorer(f.c, citegraph.PageRankOpts{})
	scores := Score(s, f.pat, 0, 1)
	for _, ctx := range f.pat.Contexts() {
		if _, inherited := f.pat.InheritedFrom(ctx); !inherited {
			continue
		}
		d := f.pat.Decay(ctx)
		if d >= 1 {
			continue
		}
		// Every score must be ≤ decay (scores were ≤ 1 before damping).
		for _, v := range scores.Run(ctx).Vals {
			if v > d+1e-9 {
				t.Fatalf("context %s: score %v exceeds decay %v", ctx, v, d)
			}
		}
	}
}

func TestScoresTopK(t *testing.T) {
	s := matrixOf(t, mapScores{"GO:1": {0: 0.9, 1: 0.5, 2: 0.5, 3: 0.1}})
	top := s.Run("GO:1").TopK(2)
	// k=2 with a tie at the 2nd score: papers 1 and 2 both included.
	if len(top) != 3 {
		t.Fatalf("TopK with tie = %v", top)
	}
	if top[0] != 0 {
		t.Fatalf("top paper = %v", top[0])
	}
	if got := s.Run("GO:1").TopK(0); got != nil {
		t.Fatal("k=0 must return nil")
	}
	if got := s.Run("GO:404").TopK(3); got != nil {
		t.Fatal("unknown context must return nil")
	}
	if got := s.Run("GO:1").TopK(99); len(got) != 4 {
		t.Fatalf("oversized k = %v", got)
	}
	// Value descending, then ID ascending.
	s = matrixOf(t, mapScores{"GO:1": {4: 0.2, 1: 0.7, 3: 0.7, 2: 0.9}})
	if got := s.Run("GO:1").TopK(4); !slices.Equal(got, []corpus.PaperID{2, 1, 3, 4}) {
		t.Fatalf("TopK order = %v", got)
	}
}

func TestPropagateMax(t *testing.T) {
	// Hierarchy: GO:1 → GO:2 → GO:3 (chain), paper 7 in all three.
	o := ontology.New()
	_ = o.Add(ontology.Term{ID: "GO:1", Name: "a"})
	_ = o.Add(ontology.Term{ID: "GO:2", Name: "b", Parents: []ontology.TermID{"GO:1"}})
	_ = o.Add(ontology.Term{ID: "GO:3", Name: "c", Parents: []ontology.TermID{"GO:2"}})
	if err := o.Build(); err != nil {
		t.Fatal(err)
	}
	in := matrixOf(t, mapScores{
		"GO:1": {7: 0.2, 8: 0.4},
		"GO:2": {7: 0.3},
		"GO:3": {7: 0.9, 9: 1.0},
	})
	before := append([]float64(nil), in.vals...)
	s := PropagateMax(o, in)
	if s.Get("GO:1", 7) != 0.9 || s.Get("GO:2", 7) != 0.9 {
		t.Fatalf("max not propagated: %v", s.vals)
	}
	// Paper 9 is not in GO:1's set — must not appear.
	if got := s.Run("GO:1").Docs; !slices.Equal(got, []corpus.PaperID{7, 8}) {
		t.Fatalf("propagation changed the ancestor's papers: %v", got)
	}
	// Paper 8 untouched.
	if s.Get("GO:1", 8) != 0.4 {
		t.Fatal("unrelated score changed")
	}
	// Descendant scores unchanged.
	if s.Get("GO:3", 7) != 0.9 {
		t.Fatal("descendant score changed")
	}
	// The input, which may alias a read-only mapping, is not written.
	if !slices.Equal(in.vals, before) {
		t.Fatalf("PropagateMax wrote its input: %v", in.vals)
	}
}

func TestPropagateMaxSkipsUnscoredMiddle(t *testing.T) {
	o := ontology.New()
	_ = o.Add(ontology.Term{ID: "GO:1", Name: "a"})
	_ = o.Add(ontology.Term{ID: "GO:2", Name: "b", Parents: []ontology.TermID{"GO:1"}})
	_ = o.Add(ontology.Term{ID: "GO:3", Name: "c", Parents: []ontology.TermID{"GO:2"}})
	if err := o.Build(); err != nil {
		t.Fatal(err)
	}
	// GO:2 not scored (excluded as too small): GO:3's score must still
	// reach GO:1.
	s := PropagateMax(o, matrixOf(t, mapScores{
		"GO:1": {7: 0.1},
		"GO:3": {7: 0.8},
	}))
	if s.Get("GO:1", 7) != 0.8 {
		t.Fatalf("score must skip unscored middle context: %v", s.vals)
	}
}

// TestHierarchicallyRelated: the cross-context bonus weights a boundary
// citation as related when one of the other paper's contexts shares a
// root-to-leaf path with the scored context. Over a diamond (GO:1 → GO:2,
// GO:3 → GO:4 → GO:5) the relation set holds ancestors and descendants both
// ways round and the term itself, and no sibling.
func TestHierarchicallyRelated(t *testing.T) {
	o := ontology.New()
	for _, term := range []ontology.Term{
		{ID: "GO:1", Name: "root"},
		{ID: "GO:2", Name: "a", Parents: []ontology.TermID{"GO:1"}},
		{ID: "GO:3", Name: "b", Parents: []ontology.TermID{"GO:1"}},
		{ID: "GO:4", Name: "c", Parents: []ontology.TermID{"GO:2", "GO:3"}},
		{ID: "GO:5", Name: "d", Parents: []ontology.TermID{"GO:4"}},
	} {
		if err := o.Add(term); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Build(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		a, b    ontology.TermID
		related bool
	}{
		{"descendant of an ancestor", "GO:1", "GO:4", true},
		{"ancestor of a descendant", "GO:4", "GO:1", true},
		{"a term and itself", "GO:2", "GO:2", true},
		{"siblings", "GO:2", "GO:3", false},
	} {
		if got := relatedContexts(o, tc.a)[tc.b]; got != tc.related {
			t.Errorf("%s: %s in the relation set of %s is %v, want %v", tc.name, tc.b, tc.a, got, tc.related)
		}
	}
}

func TestCrossContextExtension(t *testing.T) {
	f := buildFixture(t)
	base := NewCitationScorer(f.c, citegraph.PageRankOpts{})
	ext := NewCitationScorer(f.c, citegraph.PageRankOpts{})
	ext.CrossContextWeight = CrossContextWeights{Enabled: true, Related: 0.6, Unrelated: 0.1}
	ctxs := f.pat.ContextsWithMinSize(10)
	if len(ctxs) == 0 {
		t.Skip("no large contexts")
	}
	// The extension must change at least one paper's score in at least one
	// context (boundary citations exist in a generated corpus; a single
	// context can be boundary-free).
	changed := false
	for _, ctx := range ctxs {
		rb, _ := scoreRun(base, f.pat, ctx)
		re, _ := scoreRun(ext, f.pat, ctx)
		inRange01(t, "ext", re)
		if !slices.Equal(rb.Vals, re.Vals) {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("cross-context extension had no effect on any context")
	}
	// The extension's scores have the same bits on every run: its sums run
	// in paper order, not in an order that varies between calls.
	for _, ctx := range f.pat.Contexts() {
		first, _ := scoreRun(ext, f.pat, ctx)
		for run := 1; run < 5; run++ {
			again, _ := scoreRun(ext, f.pat, ctx)
			for i, v := range again.Vals {
				if math.Float64bits(v) != math.Float64bits(first.Vals[i]) {
					t.Fatalf("context %s paper %d: run %d scored %v, run 0 %v", ctx, again.Docs[i], run, v, first.Vals[i])
				}
			}
		}
	}
}

func TestContextSparseness(t *testing.T) {
	f := buildFixture(t)
	s := NewCitationScorer(f.c, citegraph.PageRankOpts{})
	for _, ctx := range f.pat.ContextsWithMinSize(10)[:1] {
		sp := s.ContextSparseness(f.pat, ctx)
		if sp < 0 || sp > 1 {
			t.Fatalf("sparseness out of range: %v", sp)
		}
	}
}

func TestScoresAccessors(t *testing.T) {
	s := matrixOf(t, mapScores{"GO:2": {1: 0.5}, "GO:1": {2: 0.25}})
	if got := s.Get("GO:2", 1); got != 0.5 {
		t.Fatalf("Get = %v", got)
	}
	if got := s.Get("GO:404", 1); got != 0 {
		t.Fatalf("missing Get = %v", got)
	}
	ctxs := s.Contexts()
	if len(ctxs) != 2 || ctxs[0] != "GO:1" {
		t.Fatalf("Contexts = %v", ctxs)
	}
	if got := s.Run("GO:1").Vals; len(got) != 1 || got[0] != 0.25 {
		t.Fatalf("Run(GO:1).Vals = %v", got)
	}
	if got := s.Get("GO:1", 1); got != 0 {
		t.Fatalf("absent paper Get = %v", got)
	}
}

func TestScorerInterfaceCompliance(t *testing.T) {
	// All three scorers satisfy the Scorer interface and name themselves.
	f := buildFixture(t)
	for _, sc := range []Scorer{
		NewCitationScorer(f.c, citegraph.PageRankOpts{}),
		NewTextScorer(f.a, DefaultTextWeights()),
		NewPatternScorer(f.ix, f.onto, pattern.DefaultConfig(), pattern.DefaultMatchConfig()),
	} {
		if sc.Name() == "" {
			t.Fatal("empty scorer name")
		}
	}
}

// must returns v, panicking on err: the fixtures' corpora always index.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
