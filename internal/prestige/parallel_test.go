package prestige

import (
	"reflect"
	"testing"

	"ctxsearch/internal/citegraph"
	"ctxsearch/internal/pattern"
)

func TestScoreAllParallelMatchesSerial(t *testing.T) {
	f := buildFixture(t)
	for _, sc := range []Scorer{
		NewCitationScorer(f.c, citegraph.PageRankOpts{}),
		NewTextScorer(f.a, DefaultTextWeights()),
	} {
		serial := ScoreAll(sc, f.pat, 10)
		parallel := ScoreAllParallel(sc, f.pat, 10, 4)
		if len(serial) != len(parallel) {
			t.Fatalf("%s: context counts differ: %d vs %d", sc.Name(), len(serial), len(parallel))
		}
		for ctx, sm := range serial {
			pm, ok := parallel[ctx]
			if !ok {
				t.Fatalf("%s: context %s missing in parallel result", sc.Name(), ctx)
			}
			if !reflect.DeepEqual(sm, pm) {
				t.Fatalf("%s: context %s scores differ", sc.Name(), ctx)
			}
		}
	}
}

func TestScoreAllParallelPatternScorer(t *testing.T) {
	// The pattern scorer's lazy cache is exercised concurrently here; run
	// with -race to validate the locking.
	f := buildFixture(t)
	sc := NewPatternScorer(f.ix, f.onto, pattern.DefaultConfig(), pattern.DefaultMatchConfig())
	serial := ScoreAll(NewPatternScorer(f.ix, f.onto, pattern.DefaultConfig(), pattern.DefaultMatchConfig()), f.pat, 20)
	parallel := ScoreAllParallel(sc, f.pat, 20, 4)
	if len(serial) != len(parallel) {
		t.Fatalf("context counts differ: %d vs %d", len(serial), len(parallel))
	}
	for ctx, sm := range serial {
		if !reflect.DeepEqual(sm, parallel[ctx]) {
			t.Fatalf("context %s scores differ", ctx)
		}
	}
}

func TestScoreAllParallelSingleWorker(t *testing.T) {
	f := buildFixture(t)
	sc := NewCitationScorer(f.c, citegraph.PageRankOpts{})
	serial := ScoreAll(sc, f.pat, 10)
	one := ScoreAllParallel(sc, f.pat, 10, 1)
	if !reflect.DeepEqual(serial, one) {
		t.Fatal("single-worker parallel differs from serial")
	}
}
