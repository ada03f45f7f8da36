package ctxsearch

import (
	"reflect"
	"strings"
	"testing"
)

// TestParallelBuildPipelineGolden is the end-to-end golden test for the
// sharded offline build: the full pipeline — analysis, indexes, both context
// sets and all three prestige score functions — must produce identical
// results at BuildWorkers 1 and N.
func TestParallelBuildPipelineGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline comparison is slow")
	}
	build := func(workers int) (*System, *ContextSet, *ContextSet) {
		cfg := smallConfig()
		cfg.BuildWorkers = workers
		sys, err := NewSyntheticSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys, sys.BuildTextContextSet(), sys.BuildPatternContextSet()
	}
	seqSys, seqText, seqPat := build(1)
	parSys, parText, parPat := build(4)

	compareSets := func(name string, a, b *ContextSet) {
		t.Helper()
		if !reflect.DeepEqual(a.Contexts(), b.Contexts()) {
			t.Fatalf("%s: context lists differ between worker counts", name)
		}
		for _, ctx := range a.Contexts() {
			if !reflect.DeepEqual(a.Papers(ctx), b.Papers(ctx)) {
				t.Fatalf("%s: papers of %s differ between worker counts", name, ctx)
			}
		}
	}
	compareSets("text set", seqText, parText)
	compareSets("pattern set", seqPat, parPat)

	for _, fn := range []struct {
		name  string
		score func(*System, *ContextSet) *Matrix
	}{
		{"text", (*System).ScoreText},
		{"citation", (*System).ScoreCitation},
		{"pattern", (*System).ScorePattern},
	} {
		seq := fn.score(seqSys, seqText)
		par := fn.score(parSys, parText)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("%s scores differ between worker counts", fn.name)
		}
	}
}

// TestBuildStatsRecorded checks that NewSyntheticSystem records generation
// and the three eager build stages, that the positional index is timed only
// once something asks for it, and that later pipeline steps append to the
// same record.
func TestBuildStatsRecorded(t *testing.T) {
	sys, err := NewSyntheticSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := sys.BuildStats()
	if st == nil {
		t.Fatal("no build stats recorded")
	}
	sys.BuildTextContextSet()
	sum := st.Summary()
	for _, stage := range []string{"generate", "analyze", "index", "contextset-text"} {
		if !strings.Contains(sum, stage) {
			t.Fatalf("summary missing stage %q:\n%s", stage, sum)
		}
	}
	if strings.Contains(sum, "posindex") {
		t.Fatalf("text-only build paid for the positional index:\n%s", sum)
	}
	if st.Stages()[0].Name != "generate" {
		t.Fatalf("generation is not the first stage:\n%s", sum)
	}
	sys.PosIndex()
	sys.PosIndex()
	if n := strings.Count(st.Summary(), "posindex"); n != 1 {
		t.Fatalf("posindex recorded %d times after use, want once:\n%s", n, st.Summary())
	}
	if st.Total() <= 0 {
		t.Fatal("zero total build time")
	}
}
