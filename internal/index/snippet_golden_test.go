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
// 160 terms, seed 1) and its eager index, whose word table is cold, and the
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

// TestSnippetMatchesReference: Snippet, through one Snippeter per query as
// a page renders, renders every paper of the benchmark's corpus, for every
// query of the battery, byte for byte as the reference does, and the
// battery reaches abstract matches, the body fallback and the head
// fallback. The reference stems each paper's words once, with its own
// stemmer, for all the queries; -short and the race detector take every
// 25th paper. The papers are shared out over GOMAXPROCS goroutines.
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
	snippets := make([]*index.Snippeter, len(queries))
	for i, q := range queries {
		snippets[i] = ix.Snippeter(ix.Analyzer().Tokenizer().Terms(q), servedSnippet)
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
				ref := ix.SnippetRefPaper(docs[i])
				for k, q := range queries {
					want, src := ref(q, servedSnippet)
					if got := snippets[k].Snippet(docs[i]); got != want {
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
// the battery's queries over one index whose word table starts empty, each
// in another order and all through one Snippeter per query, so they fill
// the table concurrently, and every row equals the reference's.
func TestSnippetConcurrentColdMemo(t *testing.T) {
	ix, queries := snippetFixture(t)
	if n := ix.WordTableLen(); n != 0 {
		t.Fatalf("the word table holds %d words before any render", n)
	}
	type row struct {
		doc   corpus.PaperID
		query string
		want  string
	}
	var rows []row
	snippets := map[string]*index.Snippeter{}
	for _, q := range queries {
		snippets[q] = ix.Snippeter(ix.Analyzer().Tokenizer().Terms(q), servedSnippet)
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
				if got := snippets[r.query].Snippet(r.doc); got != r.want {
					t.Errorf("goroutine %d, paper %d, query %q:\n got %q\nwant %q", g, r.doc, r.query, got, r.want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// snippetPageAllocCeiling bounds the allocations of rendering one page's
// snippets in BenchmarkSnippetPage from the query's terms: 10 measured, one
// excerpt a row. Tokenizing the query in the page as well made 22 (24 while
// the query's stems were a map), where a Snippet call per row made 190 (the
// query's stems, the text's split and the match marks again on every row)
// and stemming each word with a fresh stemmer 1 456. The count is
// deterministic where ns/op is noise, so CI holds it as a gate.
const snippetPageAllocCeiling = 10

// BenchmarkSnippetPage renders the snippets of one first page — the 10
// best rows of one query, with the server's options — at the serving
// benchmark's corpus shape, word table warm, through one Snippeter built
// from the query's terms as the server's renderResults does, and reports
// the time per row. It fails when a page allocates more than
// snippetPageAllocCeiling times.
func BenchmarkSnippetPage(b *testing.B) {
	ix, _ := snippetFixture(b)
	const q = "regulation of rna protein binding"
	hits := ix.Search(q, index.Options{Limit: 10})
	if len(hits) != 10 {
		b.Fatalf("%q has %d hits, want 10", q, len(hits))
	}
	// The server's page gets the query's terms from the engine, which
	// tokenized the query for its ranking.
	terms := ix.Analyzer().Tokenizer().Terms(q)
	page := func() {
		snippets := ix.Snippeter(terms, servedSnippet)
		for _, h := range hits {
			if snippets.Snippet(h.Doc) == "" {
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
