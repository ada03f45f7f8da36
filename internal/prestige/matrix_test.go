package prestige

import (
	"reflect"
	"sync"
	"testing"

	"ctxsearch/internal/citegraph"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/pattern"
)

// TestFreezeMatchesMapAllScorers is the central matrix-equality guarantee:
// for every score function and every scored context, the frozen CSR matrix
// returns exactly (==, not approximately) the score the map form holds, and
// 0 for absent papers and unscored contexts — so swapping the hot path from
// map lookups to matrix runs cannot change a single ranked result.
func TestFreezeMatchesMapAllScorers(t *testing.T) {
	f := buildFixture(t)
	scorers := []Scorer{
		NewCitationScorer(f.c, citegraph.PageRankOpts{}),
		NewTextScorer(f.a, DefaultTextWeights()),
		NewPatternScorer(f.ix, f.onto, pattern.DefaultConfig(), pattern.DefaultMatchConfig()),
	}
	for _, sc := range scorers {
		scores := ScoreAll(sc, f.pat, 0)
		m := scores.Freeze()
		if m.NumContexts() != len(scores) {
			t.Fatalf("%s: %d contexts frozen, map has %d", sc.Name(), m.NumContexts(), len(scores))
		}
		nnz := 0
		for ctx, row := range scores {
			run := m.Run(ctx)
			if len(run.Docs) != len(row) {
				t.Fatalf("%s: context %s run has %d docs, map has %d", sc.Name(), ctx, len(run.Docs), len(row))
			}
			nnz += len(row)
			for p, want := range row {
				if got := m.Get(ctx, p); got != want {
					t.Fatalf("%s: %s/%d: matrix %v != map %v", sc.Name(), ctx, p, got, want)
				}
			}
			// Papers of the context absent from the map must read as 0 from
			// both forms.
			for _, p := range f.pat.Papers(ctx) {
				if _, ok := row[p]; !ok {
					if got := run.Get(p); got != 0 {
						t.Fatalf("%s: %s/%d: absent paper scored %v", sc.Name(), ctx, p, got)
					}
				}
			}
		}
		if len(m.docs) != nnz {
			t.Fatalf("%s: NNZ %d != %d map entries", sc.Name(), len(m.docs), nnz)
		}
		if got := m.Get(ontology.TermID("GO:nosuch"), 0); got != 0 {
			t.Fatalf("%s: unscored context returned %v", sc.Name(), got)
		}
	}
}

func TestFreezeThawRoundTrip(t *testing.T) {
	f := buildFixture(t)
	scores := ScoreAll(NewTextScorer(f.a, DefaultTextWeights()), f.text, 0)
	if got := scores.Freeze().Thaw(); !reflect.DeepEqual(scores, got) {
		t.Fatal("Thaw(Freeze(scores)) differs from scores")
	}
}

func TestMatrixContextsSortedAndOrdinals(t *testing.T) {
	f := buildFixture(t)
	scores := ScoreAll(NewTextScorer(f.a, DefaultTextWeights()), f.text, 0)
	m := scores.Freeze()
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

// TestMatrixRowMax pins the per-run maxima the search layer's top-k
// pruning bound reads: Freeze computes them, and the CSR arrays the state
// file persists carry them back through FromCSR.
func TestMatrixRowMax(t *testing.T) {
	f := buildFixture(t)
	scores := ScoreAll(NewTextScorer(f.a, DefaultTextWeights()), f.text, 0)
	m := scores.Freeze()
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
	check("freeze", m)

	got, err := FromCSR(m.CSR())
	if err != nil {
		t.Fatal(err)
	}
	check("round trip", got)
	if !reflect.DeepEqual(scores, got.Thaw()) {
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
	want := ScoreAll(sc, f.pat, 0)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := ScoreAllParallel(sc, f.pat, 0, 8); !reflect.DeepEqual(want, got) {
				t.Error("concurrent ScoreAllParallel diverged from serial")
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
	scores := ScoreAll(NewTextScorer(f.a, DefaultTextWeights()), f.text, 0)
	m := scores.Freeze()
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
