// Query-path benchmarks at the benchmark suite's reduced scale (400 papers,
// 90 terms, seed 1): context selection and full context-based search at
// several fan-out widths (k selected contexts). BENCH_PR1.json records the before/after numbers of
// the PR-1 query-path overhaul measured with these benchmarks.
package search_test

import (
	"context"
	"sync"
	"testing"

	"ctxsearch"
	"ctxsearch/internal/contextset"
	"ctxsearch/internal/prestige"
)

var (
	benchOnce sync.Once
	benchEng  *ctxsearch.Engine
	benchErr  error
)

// benchQuery is broad on purpose: its vocabulary overlaps many generated
// term names, so SelectContexts has real candidate-ranking work to do and
// MaxContexts=k genuinely controls the per-query fan-out.
const benchQuery = "regulation of rna protein binding transport activity"

func benchEngine(b *testing.B) *ctxsearch.Engine {
	b.Helper()
	benchOnce.Do(func() {
		cfg := ctxsearch.DefaultConfig()
		cfg.Seed = 1
		cfg.Papers = 400
		cfg.OntologyTerms = 90
		sys, err := ctxsearch.NewSyntheticSystem(cfg)
		if err != nil {
			benchErr = err
			return
		}
		cs := sys.BuildTextContextSet()
		benchEng = sys.Engine(sys.ScoreText(cs))
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEng
}

// benchOpts selects exactly k contexts for benchQuery.
func benchOpts(b *testing.B, e *ctxsearch.Engine, k int) ctxsearch.SearchOptions {
	b.Helper()
	opts := ctxsearch.SearchOptions{MaxContexts: k, MinContextMatch: 0.01}
	if got := len(e.SelectContexts(benchQuery, opts)); got != k {
		b.Fatalf("benchmark query selects %d contexts, want %d", got, k)
	}
	return opts
}

func BenchmarkSelectContexts(b *testing.B) {
	e := benchEngine(b)
	opts := ctxsearch.SearchOptions{MinContextMatch: 0.01}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(e.SelectContexts(benchQuery, opts)) == 0 {
			b.Fatal("no contexts selected")
		}
	}
}

func benchmarkEngineSearch(b *testing.B, k int) {
	e := benchEngine(b)
	opts := benchOpts(b, e, k)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(e.Search(benchQuery, opts)) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkEngineSearch1(b *testing.B) { benchmarkEngineSearch(b, 1) }
func BenchmarkEngineSearch4(b *testing.B) { benchmarkEngineSearch(b, 4) }
func BenchmarkEngineSearch8(b *testing.B) { benchmarkEngineSearch(b, 8) }

// benchmarkEngineSearchTopK measures a page: the same 8-context query as
// BenchmarkEngineSearch8, but asking for the first limit results, so the
// merge builds results for the ranked prefix only instead of the full list.
func benchmarkEngineSearchTopK(b *testing.B, limit int) {
	e := benchEngine(b)
	opts := benchOpts(b, e, 8)
	opts.Limit = limit
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(e.Search(benchQuery, opts)) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkEngineSearchTop10(b *testing.B)  { benchmarkEngineSearchTopK(b, 10) }
func BenchmarkEngineSearchTop100(b *testing.B) { benchmarkEngineSearchTopK(b, 100) }

func BenchmarkEngineSearchBoolean(b *testing.B) {
	e := benchEngine(b)
	opts := benchOpts(b, e, 4)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := e.SearchBooleanContext(context.Background(), "regulation AND (rna OR protein) binding", opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkEngineSearchFull is the library_batch workload of bench/ as a
// micro-benchmark: full ranked lists (Limit 0) from an engine over frozen
// state — frozen context set, prestige matrix built without its map form —
// at the benchmark's corpus shape (800 papers, 160 terms, seed 1), cycling
// through the scored contexts' names as queries. It fails above
// engineSearchFullAllocCeiling allocations per list: the count is
// deterministic where ns/op is noise (19 measured — tokenizer, query vector,
// selected contexts, result list; the merge itself allocates nothing).
const engineSearchFullAllocCeiling = 21

func BenchmarkEngineSearchFull(b *testing.B) {
	cfg := ctxsearch.DefaultConfig()
	cfg.Seed, cfg.Papers, cfg.OntologyTerms = 1, 800, 160
	sys, err := ctxsearch.NewSyntheticSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cs := sys.BuildTextContextSet()
	frozen, err := contextset.FromFrozen(sys.Ontology, cs.Freeze())
	if err != nil {
		b.Fatal(err)
	}
	ctxs, vals := sys.ScoreText(cs).Column()
	matrix, err := prestige.FromColumn(frozen, ctxs, vals)
	if err != nil {
		b.Fatal(err)
	}
	e := sys.Engine(matrix)
	var queries []string
	for _, ctx := range matrix.Contexts() {
		if t := sys.Ontology.Term(ctx); t != nil && len(e.Search(t.Name, ctxsearch.SearchOptions{})) > 0 {
			queries = append(queries, t.Name)
		}
	}
	if len(queries) == 0 {
		b.Fatal("no context name returns a result")
	}
	next := 0
	search := func() {
		if len(e.Search(queries[next%len(queries)], ctxsearch.SearchOptions{})) == 0 {
			b.Fatal("no results")
		}
		next++
	}
	if n := testing.AllocsPerRun(2*len(queries), search); n > engineSearchFullAllocCeiling {
		b.Fatalf("a full list allocates %.0f times, ceiling %d", n, engineSearchFullAllocCeiling)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		search()
	}
}
