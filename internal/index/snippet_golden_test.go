package index_test

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/goldentest"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
)

// servedSnippet is the options the server renders a row's snippet with.
var servedSnippet = index.SnippetOptions{Window: 24, Pre: "**", Post: "**"}

// snippetFixture builds the serving benchmark's corpus shape (800 papers,
// 160 terms, seed 1) and its eager index, whose stem memo is cold, and the
// query battery over it: goldentest.Queries over the text context set's
// contexts, then every ontology name not already among them.
func snippetFixture(tb testing.TB) (*index.Index, []string) {
	tb.Helper()
	ocfg := ontology.DefaultGenConfig()
	ocfg.NumTerms = 160
	o, err := ontology.Generate(ocfg)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(800))
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := index.BuildWorkers(corpus.NewAnalyzerWorkers(c, 0), 0)
	if err != nil {
		tb.Fatal(err)
	}
	var queries []string
	for _, q := range goldentest.Queries(tb, o, contextset.BuildTextBased(ix, o, 0).Contexts()) {
		queries = append(queries, q.Text)
	}
	for _, id := range o.TermIDs() {
		queries = append(queries, o.Term(id).Name)
	}
	slices.Sort(queries)
	return ix, slices.Compact(queries)
}

// TestSnippetMatchesReference: the memoised Snippet renders every paper of
// the benchmark's corpus, for every query of the battery, byte for byte as
// the reference does, and the battery reaches abstract matches, the body
// fallback and the head fallback. The reference stems every word it meets,
// about 0.3 ms a pair, so -short and the race detector take every 25th
// paper; the papers are shared out over GOMAXPROCS goroutines.
func TestSnippetMatchesReference(t *testing.T) {
	ix, queries := snippetFixture(t)
	stride := 1
	if testing.Short() || index.RaceEnabled {
		stride = 25
	}
	var docs []corpus.PaperID
	for doc := 0; doc < ix.Analyzer().Corpus().Len(); doc += stride {
		docs = append(docs, corpus.PaperID(doc))
	}
	workers := runtime.GOMAXPROCS(0)
	sources := make([]map[string]int, workers)
	var wg sync.WaitGroup
	for w := range workers {
		sources[w] = map[string]int{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(docs); i += workers {
				for _, q := range queries {
					want, src := ix.SnippetRef(docs[i], q, servedSnippet)
					if got := ix.Snippet(docs[i], q, servedSnippet); got != want {
						t.Errorf("paper %d, query %q:\n got %q\nwant %q", docs[i], q, got, want)
						return
					}
					sources[w][src]++
				}
			}
		}()
	}
	wg.Wait()
	total := map[string]int{}
	for _, m := range sources {
		for src, n := range m {
			total[src] += n
		}
	}
	for _, src := range []string{"abstract", "body", "head"} {
		if total[src] == 0 {
			t.Errorf("no (paper, query) pair excerpts the %s: %v", src, total)
		}
	}
	t.Logf("%d papers x %d queries: %v", len(docs), len(queries), total)
}

// TestSnippetConcurrentColdMemo: 8 goroutines render the first pages of
// the battery's queries over one index whose stem memo starts empty, each
// in another order, and every row equals the reference's.
func TestSnippetConcurrentColdMemo(t *testing.T) {
	ix, queries := snippetFixture(t)
	if n := ix.StemMemoLen(); n != 0 {
		t.Fatalf("stem memo holds %d words before any render", n)
	}
	type row struct {
		doc   corpus.PaperID
		query string
		want  string
	}
	var rows []row
	for _, q := range queries {
		for _, h := range ix.Search(q, index.Options{Limit: 10}) {
			want, _ := ix.SnippetRef(h.Doc, q, servedSnippet)
			rows = append(rows, row{h.Doc, q, want})
		}
	}
	if len(rows) == 0 {
		t.Fatal("no query has a hit")
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rows {
				r := rows[(i+g*len(rows)/goroutines)%len(rows)]
				if got := ix.Snippet(r.doc, r.query, servedSnippet); got != r.want {
					t.Errorf("goroutine %d, paper %d, query %q:\n got %q\nwant %q", g, r.doc, r.query, got, r.want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// snippetPageAllocCeiling bounds the allocations of rendering one page's
// snippets in BenchmarkSnippetPage: 190 measured, 19 a row (the query's
// stem set, the text's split, the match marks and the excerpt), where
// stemming each word with a fresh stemmer made 1 456. The count is
// deterministic where ns/op is noise, so CI holds it as a gate.
const snippetPageAllocCeiling = 200

// BenchmarkSnippetPage renders the snippets of one first page — the 10
// best rows of one query, with the server's options — at the serving
// benchmark's corpus shape, stem memo warm, and reports the time per row.
// It fails when a page allocates more than snippetPageAllocCeiling times.
func BenchmarkSnippetPage(b *testing.B) {
	ix, _ := snippetFixture(b)
	const q = "regulation of rna protein binding"
	hits := ix.Search(q, index.Options{Limit: 10})
	if len(hits) != 10 {
		b.Fatalf("%q has %d hits, want 10", q, len(hits))
	}
	page := func() {
		for _, h := range hits {
			if ix.Snippet(h.Doc, q, servedSnippet) == "" {
				b.Fatalf("paper %d has no snippet", h.Doc)
			}
		}
	}
	if n := testing.AllocsPerRun(5, page); n > snippetPageAllocCeiling {
		b.Fatalf("a page's snippets allocate %.0f times, ceiling %d", n, snippetPageAllocCeiling)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		page()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(hits)), "µs/row")
}
