package index

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ctxsearch/internal/bitset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/vector"
)

// buildTopKFixture generates a mid-sized corpus so the MaxScore path has
// real pruning decisions to make (hundreds of candidates per query).
func buildTopKFixture(t testing.TB) (*Index, *corpus.Corpus) {
	t.Helper()
	o, err := ontology.Generate(ontology.GenConfig{Seed: 11, NumTerms: 70, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	return BuildWorkers(corpus.NewAnalyzerWorkers(c, 0), 0), c
}

// exhaustiveTopK is the reference: the unpruned full evaluation (Limit 0
// scores and sorts every matching document) truncated to the page.
func exhaustiveTopK(t *testing.T, ix *Index, qv vector.Sparse, opts Options) []Hit {
	t.Helper()
	full := opts
	full.Limit = 0
	hits, err := ix.SearchVectorContext(context.Background(), qv, full)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) > opts.Limit {
		hits = hits[:opts.Limit]
	}
	return hits
}

func diffHits(t *testing.T, label string, got, want []Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: pruned returned %d hits, exhaustive %d\ngot:  %v\nwant: %v",
			label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: hit %d differs (scores must be bit-identical)\ngot:  %+v\nwant: %+v",
				label, i, got[i], want[i])
		}
	}
}

// TestSearchTopKGoldenEquality asserts the MaxScore-pruned path returns
// byte-identical pages to the exhaustive evaluation across randomized
// (k, threshold, restriction) combinations and a battery of query shapes.
func TestSearchTopKGoldenEquality(t *testing.T) {
	ix, c := buildTopKFixture(t)
	a := ix.Analyzer()
	queries := []string{
		"regulation of rna synthesis",
		"protein binding transport",
		"activity complex formation regulation binding transport rna protein",
		"synthesis",
		"qqqzzz unknown",
	}
	rng := rand.New(rand.NewSource(99))
	for qi, q := range queries {
		qv := a.QueryVector(q)
		for trial := 0; trial < 30; trial++ {
			opts := Options{Limit: 1 + rng.Intn(40)}
			switch rng.Intn(3) {
			case 1:
				opts.Threshold = rng.Float64() * 0.4
			case 2:
				// Random context-style restriction over ~half the corpus.
				var set bitset.Set
				for d := 0; d < c.Len(); d++ {
					if rng.Intn(2) == 0 {
						set.Add(d)
					}
				}
				opts.WithinSet = set
				opts.Threshold = rng.Float64() * 0.2
			}
			label := fmt.Sprintf("query %d %q trial %d opts %+v", qi, q, trial, opts)
			got, err := ix.SearchVectorContext(context.Background(), qv, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			diffHits(t, label, got, exhaustiveTopK(t, ix, qv, opts))
		}
	}
}

// TestSearchTopKCentroidQueries covers the dense-vector query shape
// (document centroids used by expansion and clustering): hundreds of terms
// with skewed weights stress the essential/non-essential split.
func TestSearchTopKCentroidQueries(t *testing.T) {
	ix, c := buildTopKFixture(t)
	a := ix.Analyzer()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		// Centroid of a few random documents.
		qv := vector.Sparse{}
		for i := 0; i < 3; i++ {
			r := a.Row(corpus.PaperID(rng.Intn(c.Len())), corpus.WholeText)
			for k, t := range r.Terms {
				qv[a.Term(t)] += r.Weights[k]
			}
		}
		opts := Options{Limit: 1 + rng.Intn(15), Threshold: rng.Float64() * 0.3}
		label := fmt.Sprintf("centroid trial %d opts %+v (%d terms)", trial, opts, len(qv))
		got, err := ix.SearchVectorContext(context.Background(), qv, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		diffHits(t, label, got, exhaustiveTopK(t, ix, qv, opts))
	}
}

// TestSearchTopKCancellation asserts the pruned path honours context
// cancellation.
func TestSearchTopKCancellation(t *testing.T) {
	ix, _ := buildTopKFixture(t)
	qv := ix.Analyzer().QueryVector("regulation of rna synthesis")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hits, err := ix.SearchVectorContext(ctx, qv, Options{Limit: 10})
	if err == nil || hits != nil {
		t.Fatalf("cancelled top-k search returned (%v, %v), want (nil, error)", hits, err)
	}
}

// TestSearchTopKConcurrentQueries drives bounded queries from many
// goroutines against one index, all leasing evaluator state from the
// shared topkScratch pool. Under -race it is the data-race proof for the
// pooled scratch handoff; the page comparison proves no query reads
// another's scratch.
func TestSearchTopKConcurrentQueries(t *testing.T) {
	a, c := buildBlockFixture(t)
	ix := BuildWorkers(a, 0)
	queries := []string{
		"regulation of rna synthesis",
		"protein binding transport",
		"activity complex formation regulation binding transport rna protein",
	}
	var set bitset.Set
	for d := 0; d < c.Len(); d += 2 {
		set.Add(d)
	}
	shapes := make([]Options, 0, len(queries)*2)
	want := make([][]Hit, 0, len(queries)*2)
	for _, q := range queries {
		for _, opts := range []Options{
			{Limit: 10},
			{Limit: 25, Threshold: 0.05, WithinSet: set},
		} {
			shapes = append(shapes, opts)
			want = append(want, exhaustiveTopK(t, ix, a.QueryVector(q), opts))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (g + round) % len(shapes)
				got, err := ix.SearchVectorContext(context.Background(), a.QueryVector(queries[i/2]), shapes[i])
				if err != nil {
					t.Errorf("goroutine %d round %d: %v", g, round, err)
					return
				}
				if !slices.Equal(got, want[i]) {
					t.Errorf("goroutine %d round %d shape %d:\ngot:  %+v\nwant: %+v", g, round, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBuildTermMaxima pins the per-term maxima the MaxScore bounds rest
// on: maxWeight is the max posting weight, maxRatio the max weight/norm.
func TestBuildTermMaxima(t *testing.T) {
	ix, _ := buildTopKFixture(t)
	for tid := 0; tid < ix.Terms(); tid++ {
		docs, ws := ix.Postings(int32(tid))
		var mw, mr float64
		for i, w := range ws {
			if w > mw {
				mw = w
			}
			if dn := ix.norms[docs[i]]; dn > 0 && w/dn > mr {
				mr = w / dn
			}
		}
		if ix.maxWeight[tid] != mw || ix.maxRatio[tid] != mr {
			t.Fatalf("term %d maxima = (%v, %v), want (%v, %v)",
				tid, ix.maxWeight[tid], ix.maxRatio[tid], mw, mr)
		}
	}
}
