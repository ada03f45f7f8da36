package prestige

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
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
// cells of want, with the same bits, each run ascending by paper.
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
		for j, d := range run.Docs {
			if j > 0 && run.Docs[j-1] >= d {
				t.Fatalf("%s: context %s run not ascending at %d", name, ctx, j)
			}
			w, in := row[d]
			if !in || math.Float64bits(run.Vals[j]) != math.Float64bits(w) {
				t.Fatalf("%s: %s/%d = %v, reference %v (present %v)", name, ctx, d, run.Vals[j], w, in)
			}
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
		NewCitationScorer(f.c),
		NewTextScorer(f.a),
		NewPatternScorer(f.memo),
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
	m := Score(NewTextScorer(f.a), f.text, 0, 0)
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

// TestScoreAllParallelArenaStress runs several full parallel scoring passes
// concurrently over one scorer, so its pooled citegraph arenas are handed
// between many workers at once — the race detector's target (make race
// includes this package) — while every pass must still equal the serial
// result exactly.
func TestScoreAllParallelArenaStress(t *testing.T) {
	f := buildFixture(t)
	sc := NewCitationScorer(f.c)
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
// with unchanged values, and a disjoint cover of slices partitions the full matrix's cells.
func TestMatrixSlice(t *testing.T) {
	f := buildFixture(t)
	m := Score(NewTextScorer(f.a), f.text, 0, 0)
	n := f.c.Len()

	for _, cuts := range [][]int{{0, n}, {0, n / 2, n}, {0, n / 3, 2 * n / 3, n}, {0, 1, n - 1, n}} {
		nnz := 0
		for pi := 0; pi+1 < len(cuts); pi++ {
			lo, hi := cuts[pi], cuts[pi+1]
			s := m.Slice(lo, hi)
			if !reflect.DeepEqual(s.ctxs, m.ctxs) {
				t.Fatalf("cuts %v [%d,%d): sliced context list differs", cuts, lo, hi)
			}
			for i, ctx := range m.ctxs {
				fullRun := m.RunAt(i)
				run := s.RunAt(i)
				nnz += len(run.Docs)
				k := 0
				for j, doc := range fullRun.Docs {
					if int(doc) < lo || int(doc) >= hi {
						continue
					}
					if k >= len(run.Docs) || run.Docs[k] != doc || run.Vals[k] != fullRun.Vals[j] {
						t.Fatalf("cuts %v [%d,%d) ctx %s: cell for paper %d missing or wrong", cuts, lo, hi, ctx, doc)
					}
					k++
				}
				if k != len(run.Docs) {
					t.Fatalf("cuts %v [%d,%d) ctx %s: %d extra cells", cuts, lo, hi, ctx, len(run.Docs)-k)
				}
			}
		}
		if full := cells(m); nnz != full {
			t.Fatalf("cuts %v: slices hold %d cells, full matrix %d", cuts, nnz, full)
		}
	}

	// Degenerate empty slice: all rows present, all empty.
	empty := m.Slice(5, 5)
	if cells(empty) != 0 || empty.NumContexts() != m.NumContexts() {
		t.Fatalf("empty slice: NNZ=%d contexts=%d, want 0 and %d", cells(empty), empty.NumContexts(), m.NumContexts())
	}
}

// cells counts the cells of m's rows.
func cells(m *Matrix) int {
	n := 0
	for i := range m.ctxs {
		n += len(m.RunAt(i).Docs)
	}
	return n
}

// nanDecliner writes NaN over every run and then declines every other
// context, as the Scorer contract allows.
type nanDecliner struct{ Scorer }

func (d nanDecliner) ScoreContext(cs *contextset.ContextSet, ctx ontology.TermID, vals []float64) bool {
	ok := d.Scorer.ScoreContext(cs, ctx, vals)
	if ctx[len(ctx)-1]%2 == 0 {
		for i := range vals {
			vals[i] = math.NaN()
		}
		return false
	}
	return ok
}

// TestScoreClearsDeclinedSlots holds Score to its column: the slots of a
// context the scorer declined are 0 whatever the scorer wrote into them,
// so the column (which the state file stores whole) is the same at every
// worker count.
func TestScoreClearsDeclinedSlots(t *testing.T) {
	f := buildFixture(t)
	sc := nanDecliner{NewTextScorer(f.a)}
	want := Score(sc, f.text, 0, 1)
	if want.NumContexts() == 0 || want.NumContexts() == len(f.text.Contexts()) {
		t.Fatalf("%d of %d contexts scored: the fixture declines none or all", want.NumContexts(), len(f.text.Contexts()))
	}
	scored := make([]bool, len(want.vals))
	for i := range want.ctxs {
		s := want.spans[i]
		for j := s.lo; j < s.hi; j++ {
			scored[j] = true
		}
	}
	for j, v := range want.vals {
		if !scored[j] && math.Float64bits(v) != 0 {
			t.Fatalf("slot %d of an unscored context holds %v, want 0", j, v)
		}
	}
	for _, workers := range []int{2, 8} {
		if got := Score(sc, f.text, 0, workers); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers %d: matrix differs from workers 1", workers)
		}
	}
}
