// Benchmarks regenerating every figure of the paper's evaluation section
// (see DESIGN.md's experiment index). Each benchmark measures the
// computation of one figure's data series over a shared reduced-scale setup
// (the expensive corpus/context/score construction is done once and timed
// by BenchmarkSetup).
//
// Run with: go test -bench=. -benchmem
package ctxsearch_test

import (
	"sync"
	"testing"

	"ctxsearch"
	"ctxsearch/internal/experiments"
)

// benchScale is a reduced scale for the benchmark suite.
var benchScale = experiments.Scale{Papers: 400, Terms: 90, Queries: 25, Seed: 1}

var (
	benchOnce  sync.Once
	benchSetup *experiments.Setup
	benchErr   error
)

func getSetup(b *testing.B) *experiments.Setup {
	b.Helper()
	benchOnce.Do(func() {
		benchSetup, benchErr = experiments.NewSetup(benchScale, nil)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSetup
}

// BenchmarkSetup measures the full pre-processing pipeline the paper runs
// before any query: corpus analysis, both context paper sets, and all five
// score-function×context-set combinations.
func BenchmarkSetup(b *testing.B) {
	scale := benchScale
	scale.Papers = 150
	scale.Terms = 50
	scale.Queries = 10
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewSetup(scale, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSystemBuild measures the end-to-end offline build (analysis,
// inverted index) at a fixed worker count; the
// synthetic ontology/corpus generation is excluded by reusing them across
// iterations.
func benchSystemBuild(b *testing.B, workers int) {
	cfg := ctxsearch.DefaultConfig()
	cfg.OntologyTerms = 80
	cfg.Papers = 400
	cfg.BuildWorkers = workers
	seed, err := ctxsearch.NewSyntheticSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	o, c := seed.Ontology, seed.Corpus
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ctxsearch.NewSystem(o, c, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Workers2 is the one to read against Workers1 on a 2-CPU host: 1-vs-8
// there shows oversubscription, not whether the build scales.
func BenchmarkSystemBuildWorkers1(b *testing.B) { benchSystemBuild(b, 1) }
func BenchmarkSystemBuildWorkers2(b *testing.B) { benchSystemBuild(b, 2) }
func BenchmarkSystemBuildWorkers8(b *testing.B) { benchSystemBuild(b, 8) }

// BenchmarkFig51 regenerates Figure 5.1 (precision, text vs citation on the
// text-based context paper set).
func BenchmarkFig51(b *testing.B) {
	s := getSetup(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig := s.Fig51()
		if len(fig.Series) != 2 {
			b.Fatal("bad figure")
		}
	}
}

// BenchmarkFig52 regenerates Figure 5.2 (precision, pattern vs citation on
// the pattern-based context paper set).
func BenchmarkFig52(b *testing.B) {
	s := getSetup(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig := s.Fig52()
		if len(fig.Series) != 2 {
			b.Fatal("bad figure")
		}
	}
}

// BenchmarkFig53 regenerates Figure 5.3 (top-k% overlapping ratio per
// context level for all three score-function pairs).
func BenchmarkFig53(b *testing.B) {
	s := getSetup(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig := s.Fig53()
		if len(fig.Pairs) != 3 {
			b.Fatal("bad figure")
		}
	}
}

// BenchmarkFig54 regenerates Figure 5.4 (overall separability histograms of
// both context paper sets).
func BenchmarkFig54(b *testing.B) {
	s := getSetup(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x, y := s.Fig54()
		if len(x.Series) == 0 || len(y.Series) == 0 {
			b.Fatal("bad figure")
		}
	}
}

// BenchmarkFig55 regenerates Figure 5.5 (text-based score separability per
// context level).
func BenchmarkFig55(b *testing.B) {
	s := getSetup(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if fig := s.Fig55(); len(fig.Series) == 0 {
			b.Fatal("bad figure")
		}
	}
}

// BenchmarkFig56 regenerates Figure 5.6 (pattern-based score separability
// per context level).
func BenchmarkFig56(b *testing.B) {
	s := getSetup(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if fig := s.Fig56(); len(fig.Series) == 0 {
			b.Fatal("bad figure")
		}
	}
}

// BenchmarkFig57 regenerates Figure 5.7 (citation-based score separability
// per context level).
func BenchmarkFig57(b *testing.B) {
	s := getSetup(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if fig := s.Fig57(); len(fig.Series) == 0 {
			b.Fatal("bad figure")
		}
	}
}

// BenchmarkClaimBaseline regenerates the §1 headline claim comparison
// (output-size reduction and accuracy gain vs the keyword baseline).
func BenchmarkClaimBaseline(b *testing.B) {
	s := getSetup(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := s.ClaimBaseline(); r.Queries == 0 {
			b.Fatal("no queries")
		}
	}
}

// BenchmarkAblateTeleport regenerates ablation A1 (PageRank E1 vs E2).
func BenchmarkAblateTeleport(b *testing.B) {
	s := getSetup(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := s.AblateTeleport(); r.Contexts == 0 {
			b.Fatal("no contexts")
		}
	}
}

// BenchmarkAblateHITS regenerates ablation A2 (HITS vs PageRank
// correlation).
func BenchmarkAblateHITS(b *testing.B) {
	s := getSetup(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.AblateHITS()
	}
}

// BenchmarkAblateCutoff regenerates ablation A3 (small-context exclusion
// sweep).
func BenchmarkAblateCutoff(b *testing.B) {
	s := getSetup(b)
	cutoffs := []int{0, 5, 10, 25, 50, 100}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := s.AblateCutoff(cutoffs); len(r.Contexts) != len(cutoffs) {
			b.Fatal("bad sweep")
		}
	}
}

// BenchmarkExtCrossContext regenerates extension E1 (§7 weighted
// cross-context citations).
func BenchmarkExtCrossContext(b *testing.B) {
	s := getSetup(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.AblateCrossContext()
	}
}

// BenchmarkSearch measures one end-to-end context-based query (tasks 3–5).
func BenchmarkSearch(b *testing.B) {
	s := getSetup(b)
	engine := s.Sys.Engine(s.TextOnTextSet)
	query := s.Queries[0].Text
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = engine.Search(query, ctxsearch.SearchOptions{})
	}
}
