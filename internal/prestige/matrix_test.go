package prestige

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"ctxsearch/internal/citegraph"
	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/pattern"
)

// scoreMapReference is the map form of Score: every context with more
// than minSize papers scored one at a time (raw[ctx] is its scorer's run,
// absent when declined), each run copied into a paper → score map, and the
// decay step applied to the map.
func scoreMapReference(cs *contextset.ContextSet, raw replayScorer, minSize int) mapScores {
	out := mapScores{}
	for _, ctx := range cs.ContextsWithMinSize(minSize) {
		vals, ok := raw[ctx]
		if !ok {
			continue
		}
		m := make(map[corpus.PaperID]float64, len(vals))
		for i, p := range cs.Papers(ctx) {
			m[p] = vals[i]
		}
		if d := cs.Decay(ctx); d != 1 {
			for id := range m {
				m[id] *= d
			}
		}
		out[ctx] = m
	}
	return out
}

// propagateMaxMap is the map form of PropagateMax, writing s in place.
func propagateMaxMap(onto *ontology.Ontology, s mapScores) mapScores {
	terms := make([]ontology.TermID, 0, len(s))
	for t := range s {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool {
		li, lj := onto.Level(terms[i]), onto.Level(terms[j])
		if li != lj {
			return li > lj // deepest first
		}
		return terms[i] < terms[j]
	})
	for _, t := range terms {
		child := s[t]
		for _, anc := range onto.Ancestors(t) {
			am, ok := s[anc]
			if !ok {
				continue
			}
			for p, v := range child {
				if cur, in := am[p]; in && v > cur {
					am[p] = v
				}
			}
		}
	}
	return s
}

// requireMatrixEqualsMap fails unless m holds exactly the contexts and
// cells of want, with the same bits, each run ascending by paper, and each
// row maximum the largest value of its run.
func requireMatrixEqualsMap(t *testing.T, name string, m *Matrix, want mapScores) {
	t.Helper()
	if m.NumContexts() != len(want) {
		t.Fatalf("%s: %d contexts, reference %d", name, m.NumContexts(), len(want))
	}
	for i, ctx := range m.ctxs {
		row, ok := want[ctx]
		if !ok {
			t.Fatalf("%s: context %s is not in the reference", name, ctx)
		}
		run := m.RunAt(i)
		if len(run.Docs) != len(row) {
			t.Fatalf("%s: context %s has %d cells, reference %d", name, ctx, len(run.Docs), len(row))
		}
		var max float64
		for j, d := range run.Docs {
			if j > 0 && run.Docs[j-1] >= d {
				t.Fatalf("%s: context %s run not ascending at %d", name, ctx, j)
			}
			w, in := row[d]
			if !in || math.Float64bits(run.Vals[j]) != math.Float64bits(w) {
				t.Fatalf("%s: %s/%d = %v, reference %v (present %v)", name, ctx, d, run.Vals[j], w, in)
			}
			max = math.Max(max, w)
		}
		if run.Max != max {
			t.Fatalf("%s: context %s row max %v, want %v", name, ctx, run.Max, max)
		}
	}
}

// replayScorer scores each context with a recorded run, and declines the
// contexts it holds none for.
type replayScorer map[ontology.TermID][]float64

func (r replayScorer) Name() string { return "replay" }

func (r replayScorer) ScoreContext(_ *contextset.ContextSet, ctx ontology.TermID, vals []float64) bool {
	run, ok := r[ctx]
	copy(vals, run)
	return ok
}

// TestScoreMatchesMapReference holds Score and PropagateMax to the map form
// the scores took before the matrix was their only form: for each scorer,
// context set, size cutoff and worker count, every cell of the scored and
// of the propagated matrix has the reference's bits, and PropagateMax
// leaves its input as it was. Each scorer runs for real at the first grid
// point, concurrently; the others replay its serial runs, because the
// pattern scorer takes seconds a pass and the grid varies only Score.
func TestScoreMatchesMapReference(t *testing.T) {
	f := buildFixture(t)
	for _, sc := range []Scorer{
		NewCitationScorer(f.c, citegraph.PageRankOpts{}),
		NewTextScorer(f.a, DefaultTextWeights()),
		NewPatternScorer(f.ix, f.onto, pattern.DefaultConfig(), pattern.DefaultMatchConfig()),
	} {
		for _, set := range []struct {
			name string
			cs   *contextset.ContextSet
		}{{"text", f.text}, {"pattern", f.pat}} {
			raw := replayScorer{}
			for _, ctx := range set.cs.Contexts() {
				if r, ok := scoreRun(sc, set.cs, ctx); ok {
					raw[ctx] = r.Vals
				}
			}
			scorer := sc
			for _, minSize := range []int{0, 10} {
				for _, workers := range []int{4, 1} {
					name := fmt.Sprintf("%s on %s set, minSize %d, workers %d", sc.Name(), set.name, minSize, workers)
					m := Score(scorer, set.cs, minSize, workers)
					scorer = raw
					requireMatrixEqualsMap(t, name, m, scoreMapReference(set.cs, raw, minSize))
					before := append([]float64(nil), m.vals...)
					requireMatrixEqualsMap(t, name+", propagated", PropagateMax(f.onto, m), propagateMaxMap(f.onto, scoreMapReference(set.cs, raw, minSize)))
					if !slices.Equal(m.vals, before) {
						t.Fatalf("%s: PropagateMax wrote its input", name)
					}
				}
			}
			// Declined rows among kept ones: Score compacts them out.
			some := replayScorer{}
			for i, ctx := range set.cs.Contexts() {
				if r, ok := raw[ctx]; ok && i%3 != 0 {
					some[ctx] = r
				}
			}
			requireMatrixEqualsMap(t, sc.Name()+" on "+set.name+" set, every third context declined", Score(some, set.cs, 0, 4), scoreMapReference(set.cs, some, 0))
		}
	}

	// An unscored middle context: GO:3's score reaches GO:1 past GO:2.
	o := ontology.New()
	_ = o.Add(ontology.Term{ID: "GO:1", Name: "a"})
	_ = o.Add(ontology.Term{ID: "GO:2", Name: "b", Parents: []ontology.TermID{"GO:1"}})
	_ = o.Add(ontology.Term{ID: "GO:3", Name: "c", Parents: []ontology.TermID{"GO:2"}})
	if err := o.Build(); err != nil {
		t.Fatal(err)
	}
	hand := func() mapScores { return mapScores{"GO:1": {7: 0.1, 8: 0.3}, "GO:3": {7: 0.8, 9: 0.5}} }
	requireMatrixEqualsMap(t, "unscored middle", PropagateMax(o, matrixOf(t, hand())), propagateMaxMap(o, hand()))
}

func TestMatrixContextsSortedAndOrdinals(t *testing.T) {
	f := buildFixture(t)
	m := Score(NewTextScorer(f.a, DefaultTextWeights()), f.text, 0, 0)
	ctxs := m.Contexts()
	for i, ctx := range ctxs {
		if i > 0 && ctxs[i-1] >= ctx {
			t.Fatalf("contexts not strictly ascending at %d: %s >= %s", i, ctxs[i-1], ctx)
		}
		ord, ok := m.ord[ctx]
		if !ok || int(ord) != i {
			t.Fatalf("ordinal of %s = %d,%v, want %d", ctx, ord, ok, i)
		}
		run := m.RunAt(i)
		for j := 1; j < len(run.Docs); j++ {
			if run.Docs[j-1] >= run.Docs[j] {
				t.Fatalf("%s: run docs not strictly ascending at %d", ctx, j)
			}
		}
	}
	if _, ok := m.ord["GO:nosuch"]; ok {
		t.Fatal("unscored context has an ordinal")
	}
}

// TestMatrixRowMax pins the per-run maxima: Score and PropagateMax compute
// them, and the CSR arrays the state file persists carry them back through
// FromCSR.
func TestMatrixRowMax(t *testing.T) {
	f := buildFixture(t)
	m := Score(NewTextScorer(f.a, DefaultTextWeights()), f.text, 0, 0)
	check := func(stage string, m *Matrix) {
		t.Helper()
		for i, ctx := range m.ctxs {
			run := m.RunAt(i)
			var want float64
			for _, v := range run.Vals {
				if v > want {
					want = v
				}
			}
			if run.Max != want {
				t.Fatalf("%s: row max of %s = %v, want %v", stage, ctx, run.Max, want)
			}
		}
	}
	check("score", m)
	check("propagate", PropagateMax(f.onto, m))

	got, err := FromCSR(m.CSR())
	if err != nil {
		t.Fatal(err)
	}
	check("round trip", got)
	if !reflect.DeepEqual(m, got) {
		t.Fatal("CSR round trip lost scores")
	}
}

// TestScoreAllParallelArenaStress runs several full parallel scoring passes
// concurrently over one scorer, so its pooled citegraph arenas are handed
// between many workers at once — the race detector's target (make race
// includes this package) — while every pass must still equal the serial
// result exactly.
func TestScoreAllParallelArenaStress(t *testing.T) {
	f := buildFixture(t)
	sc := NewCitationScorer(f.c, citegraph.PageRankOpts{})
	want := Score(sc, f.pat, 0, 1)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := Score(sc, f.pat, 0, 8); !reflect.DeepEqual(want, got) {
				t.Error("concurrent Score diverged from serial")
			}
		}()
	}
	wg.Wait()
}

// TestMatrixSlice pins the sharding contract of the row-sliced matrix: a
// slice keeps every context row (so shard-side context selection sees the
// identical context list), holds exactly the cells of papers in [lo, hi)
// with unchanged values, recomputes row maxima over the restricted rows,
// and a disjoint cover of slices partitions the full matrix's cells.
func TestMatrixSlice(t *testing.T) {
	f := buildFixture(t)
	m := Score(NewTextScorer(f.a, DefaultTextWeights()), f.text, 0, 0)
	n := f.c.Len()

	for _, cuts := range [][]int{{0, n}, {0, n / 2, n}, {0, n / 3, 2 * n / 3, n}, {0, 1, n - 1, n}} {
		nnz := 0
		for pi := 0; pi+1 < len(cuts); pi++ {
			lo, hi := cuts[pi], cuts[pi+1]
			s := m.Slice(lo, hi)
			if !reflect.DeepEqual(s.ctxs, m.ctxs) {
				t.Fatalf("cuts %v [%d,%d): sliced context list differs", cuts, lo, hi)
			}
			nnz += len(s.docs)
			for i, ctx := range m.ctxs {
				fullRun := m.RunAt(i)
				run := s.RunAt(i)
				var wantMax float64
				k := 0
				for j, doc := range fullRun.Docs {
					if int(doc) < lo || int(doc) >= hi {
						continue
					}
					if k >= len(run.Docs) || run.Docs[k] != doc || run.Vals[k] != fullRun.Vals[j] {
						t.Fatalf("cuts %v [%d,%d) ctx %s: cell for paper %d missing or wrong", cuts, lo, hi, ctx, doc)
					}
					if fullRun.Vals[j] > wantMax {
						wantMax = fullRun.Vals[j]
					}
					k++
				}
				if k != len(run.Docs) {
					t.Fatalf("cuts %v [%d,%d) ctx %s: %d extra cells", cuts, lo, hi, ctx, len(run.Docs)-k)
				}
				if run.Max != wantMax {
					t.Fatalf("cuts %v [%d,%d) ctx %s: row max %v, want %v", cuts, lo, hi, ctx, run.Max, wantMax)
				}
			}
		}
		if nnz != len(m.docs) {
			t.Fatalf("cuts %v: slices hold %d cells, full matrix %d", cuts, nnz, len(m.docs))
		}
	}

	// Degenerate empty slice: all rows present, all empty.
	empty := m.Slice(5, 5)
	if len(empty.docs) != 0 || empty.NumContexts() != m.NumContexts() {
		t.Fatalf("empty slice: NNZ=%d contexts=%d, want 0 and %d", len(empty.docs), empty.NumContexts(), m.NumContexts())
	}
}
