package index

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ctxsearch/internal/bitset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/vector"
)

func buildTestIndex(t testing.TB) (*Index, *corpus.Corpus) {
	t.Helper()
	papers := []*corpus.Paper{
		{ID: 0, Title: "rna polymerase transcription", Abstract: "transcription of rna by polymerase enzymes", Body: "the rna polymerase complex transcription machinery", Authors: []string{"a b"}},
		{ID: 1, Title: "dna repair mechanisms", Abstract: "repair of damaged dna strands", Body: "dna repair pathways respond to damage", Authors: []string{"c d"}},
		{ID: 2, Title: "rna splicing factors", Abstract: "splicing of rna transcripts", Body: "spliceosome assembly on rna", Authors: []string{"e f"}},
		{ID: 3, Title: "unrelated metallurgy", Abstract: "steel alloys and corrosion", Body: "corrosion resistance of alloys", Authors: []string{"g h"}},
	}
	c, err := corpus.NewCorpus(papers)
	if err != nil {
		t.Fatal(err)
	}
	return must(BuildWorkers(corpus.NewAnalyzerWorkers(c, 0), 0)), c
}

func TestSearchRanking(t *testing.T) {
	ix, _ := buildTestIndex(t)
	hits := ix.Search("rna polymerase transcription", Options{})
	if len(hits) < 2 {
		t.Fatalf("hits = %v", hits)
	}
	if hits[0].Doc != 0 {
		t.Fatalf("paper 0 must rank first: %v", hits)
	}
	// Scores must be descending and within [0,1].
	for i := range hits {
		if hits[i].Score < 0 || hits[i].Score > 1.0000001 {
			t.Fatalf("score out of range: %v", hits[i])
		}
		if i > 0 && hits[i].Score > hits[i-1].Score {
			t.Fatalf("scores not sorted: %v", hits)
		}
	}
	// The metallurgy paper must not match an RNA query.
	for _, h := range hits {
		if h.Doc == 3 {
			t.Fatalf("irrelevant paper matched: %v", hits)
		}
	}
}

func TestSearchThresholdAndLimit(t *testing.T) {
	ix, _ := buildTestIndex(t)
	all := ix.Search("rna", Options{})
	if len(all) < 2 {
		t.Fatalf("rna should match ≥ 2 papers: %v", all)
	}
	limited := ix.Search("rna", Options{Limit: 1})
	if len(limited) != 1 || limited[0].Doc != all[0].Doc {
		t.Fatalf("limit broken: %v", limited)
	}
	strict := ix.Search("rna", Options{Threshold: all[0].Score + 0.01})
	if len(strict) != 0 {
		t.Fatalf("threshold above max must return nothing: %v", strict)
	}

}

// TestSearchWithin: a bitset restriction keeps only its documents, with and
// without a Limit.
func TestSearchWithin(t *testing.T) {
	ix, _ := buildTestIndex(t)
	var within bitset.Set
	within.Add(2)
	for _, limit := range []int{0, 5} {
		hits := ix.Search("rna", Options{WithinSet: within, Limit: limit})
		if len(hits) != 1 || hits[0].Doc != 2 {
			t.Fatalf("limit %d: within-restricted search = %v", limit, hits)
		}
	}
}

func TestSearchEmptyQuery(t *testing.T) {
	ix, _ := buildTestIndex(t)
	if hits := ix.Search("", Options{}); hits != nil {
		t.Fatalf("empty query = %v", hits)
	}
	if hits := ix.Search("the of and", Options{}); hits != nil {
		t.Fatalf("stopword-only query = %v", hits)
	}
	if hits := ix.SearchVector(vector.New(), Options{}); hits != nil {
		t.Fatalf("empty vector = %v", hits)
	}
}

func TestMatchScore(t *testing.T) {
	ix, _ := buildTestIndex(t)
	scores := matchScores(t, ix, "rna polymerase")
	if s0, s3 := scores[0], scores[3]; s0 <= s3 {
		t.Fatalf("match scores wrong: s0=%v s3=%v", s0, s3)
	}
}

// TestSegOrderAscending: the listed segments come out ascending by product
// and are exactly the listed terms' index segments with w_t·Weight — for
// every paper's whole-text row as the weights, the lists a text context
// set's representatives make — and Sort orders two hand-built lists: one
// whose products all crowd one bucket in descending order (past the move
// budget, so the comparison sort finishes), and one of equal products.
func TestSegOrderAscending(t *testing.T) {
	a, ix := partsFixture(t)
	var order SegOrder
	for _, p := range a.Corpus().Papers() {
		r := a.Row(p.ID, corpus.WholeText)
		want := map[int32]float64{}
		for i, term := range r.Terms {
			order.Add(ix, term, r.Weights[i])
			lo, hi := ix.Segments(term)
			for s := lo; s < hi; s++ {
				_, tf := ix.Segment(s)
				want[s] = r.Weights[i] * ix.Weight(term, tf)
			}
		}
		checkSegOrder(t, order.Sort(), want)
	}

	const n = 300
	crowded, tied := make([]SegProd, n+1), make([]SegProd, n)
	p := 1.0
	for i := range n + 1 {
		crowded[n-i] = SegProd{p, int32(n - i)} // descending: every product moves
		p = math.Nextafter(p, 2)
		if i < n {
			tied[i] = SegProd{0.75, int32(i)}
		}
	}
	crowded[0].Prod = 1e300 // the outlier that puts the rest in one bucket
	for _, ents := range [][]SegProd{crowded, tied} {
		want := map[int32]float64{}
		for _, e := range ents {
			want[e.Seg] = e.Prod
			order.ents = append(order.ents, e)
			order.prods = append(order.prods, e.Prod)
		}
		checkSegOrder(t, order.Sort(), want)
	}
}

// checkSegOrder fails unless got is the segments of want, each with its
// product, ascending by product.
func checkSegOrder(t *testing.T, got []SegProd, want map[int32]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d segments ordered, want %d", len(got), len(want))
	}
	for k, e := range got {
		if p, ok := want[e.Seg]; !ok || math.Float64bits(p) != math.Float64bits(e.Prod) {
			t.Fatalf("segment %d with product %v, want %v (%v)", e.Seg, e.Prod, p, ok)
		}
		delete(want, e.Seg)
		if k > 0 && got[k-1].Prod > e.Prod {
			t.Fatalf("products %v, %v out of order at %d", got[k-1].Prod, e.Prod, k)
		}
	}
}

func TestIndexOnGeneratedCorpus(t *testing.T) {
	o, err := ontology.Generate(ontology.GenConfig{Seed: 3, NumTerms: 80, MaxDepth: 7})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(150))
	if err != nil {
		t.Fatal(err)
	}
	ix := must(BuildWorkers(corpus.NewAnalyzerWorkers(c, 0), 0))
	if ix.Terms() == 0 {
		t.Fatal("no terms indexed")
	}
	// Searching for a term name should surface papers with that topic near
	// the top more often than chance (term names overlap heavily between
	// related terms, so exact-topic-at-rank-1 is not guaranteed; any of the
	// top five sufficing is the meaningful property).
	checked, good := 0, 0
	for _, term := range c.EvidenceTerms() {
		if checked >= 10 {
			break
		}
		name := o.Term(term).Name
		hits := ix.Search(name, Options{Limit: 5})
		if len(hits) == 0 {
			continue
		}
		checked++
	hitLoop:
		for _, h := range hits {
			for _, tp := range c.Paper(h.Doc).Topics {
				if tp == term {
					good++
					break hitLoop
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no terms could be checked")
	}
	if good*2 < checked {
		t.Fatalf("top hit matched the queried topic for only %d/%d terms", good, checked)
	}
}

// TestSearchVectorPoolReuse runs many searches to cycle the pooled dense
// accumulator and checks repeated identical queries stay bit-identical
// (the pool must hand back fully reset scratchpads).
func TestSearchVectorPoolReuse(t *testing.T) {
	ix, _ := buildTestIndex(t)
	qv := ix.Analyzer().QueryVector("rna transcription repair")
	first := ix.SearchVector(qv, Options{})
	if len(first) == 0 {
		t.Fatal("no hits")
	}
	for rep := 0; rep < 50; rep++ {
		got := ix.SearchVector(qv, Options{})
		if len(got) != len(first) {
			t.Fatalf("rep %d: %d hits, want %d", rep, len(got), len(first))
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("rep %d hit %d: %v != %v", rep, i, got[i], first[i])
			}
		}
	}
}

// TestSearchContextCancellation: cancelled contexts surface promptly from
// both the vector and the boolean evaluation paths, and a background
// context reproduces the plain-path results exactly.
func TestSearchContextCancellation(t *testing.T) {
	ix, _ := buildTestIndex(t)
	qv := ix.Analyzer().QueryVector("rna polymerase transcription")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if hits, err := ix.SearchVectorContext(cancelled, qv, Options{}); err != context.Canceled || hits != nil {
		t.Fatalf("SearchVectorContext = (%v, %v), want (nil, context.Canceled)", hits, err)
	}
	q, err := ix.ParseQuery("rna AND polymerase")
	if err != nil {
		t.Fatal(err)
	}
	if hits, err := ix.SearchQueryContext(cancelled, q, Options{}); err != context.Canceled || hits != nil {
		t.Fatalf("SearchQueryContext = (%v, %v), want (nil, context.Canceled)", hits, err)
	}
	// Uncancelled: identical to the plain wrappers.
	got, err := ix.SearchVectorContext(context.Background(), qv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := ix.SearchVector(qv, Options{})
	if len(got) != len(want) {
		t.Fatalf("SearchVectorContext returned %d hits, SearchVector %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d differs: %v vs %v", i, got[i], want[i])
		}
	}
}

// exhaustivePrefix is the reference for a Limit page: the Limit 0 pass,
// which scores and sorts every matching document, cut to the page.
func exhaustivePrefix(t *testing.T, ix *Index, qv vector.Sparse, opts Options) []Hit {
	t.Helper()
	full := opts
	full.Limit = 0
	hits, err := ix.SearchVectorContext(context.Background(), qv, full)
	if err != nil {
		t.Fatal(err)
	}
	return hits[:min(len(hits), opts.Limit)]
}

// TestSearchTopKGoldenEquality: on a generated corpus, a Limit page equals
// the exhaustive pass's prefix bit for bit, across random (limit, threshold,
// restriction) combinations and a battery of query shapes.
func TestSearchTopKGoldenEquality(t *testing.T) {
	a, ix := partsFixture(t)
	queries := []string{
		"regulation of rna synthesis",
		"protein binding transport",
		"activity complex formation regulation binding transport rna protein",
		"synthesis",
		"qqqzzz unknown",
	}
	rng := rand.New(rand.NewSource(99))
	filled := 0
	for qi, q := range queries {
		qv := a.QueryVector(q)
		for trial := 0; trial < 30; trial++ {
			opts := Options{Limit: 1 + rng.Intn(40)}
			switch rng.Intn(3) {
			case 1:
				opts.Threshold = rng.Float64() * 0.4
			case 2:
				// Random context-style restriction over about half the corpus.
				var set bitset.Set
				for d := 0; d < a.Corpus().Len(); d++ {
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
			want := exhaustivePrefix(t, ix, qv, opts)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: page\n%v\nis not the exhaustive prefix\n%v", label, got, want)
			}
			if len(got) == opts.Limit {
				filled++
			}
		}
	}
	if filled == 0 {
		t.Fatal("no trial filled its page; the fixture exercises no cut")
	}
}

// TestSearchTopKCentroidQueries covers the dense query shape (document
// centroids, as used by expansion and clustering): hundreds of terms with
// skewed weights, each Limit page the exhaustive prefix.
func TestSearchTopKCentroidQueries(t *testing.T) {
	a, ix := partsFixture(t)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		qv := vector.Sparse{}
		for i := 0; i < 3; i++ {
			r := a.Row(corpus.PaperID(rng.Intn(a.Corpus().Len())), corpus.WholeText)
			for k, term := range r.Terms {
				qv[a.Term(term)] += r.Weights[k]
			}
		}
		opts := Options{Limit: 1 + rng.Intn(15), Threshold: rng.Float64() * 0.3}
		label := fmt.Sprintf("centroid trial %d opts %+v (%d terms)", trial, opts, len(qv))
		got, err := ix.SearchVectorContext(context.Background(), qv, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if want := exhaustivePrefix(t, ix, qv, opts); !slices.Equal(got, want) {
			t.Fatalf("%s: page\n%v\nis not the exhaustive prefix\n%v", label, got, want)
		}
	}
}

// TestSearchTopKCancellation: a cancelled context stops a Limit query too.
func TestSearchTopKCancellation(t *testing.T) {
	a, ix := partsFixture(t)
	qv := a.QueryVector("regulation of rna synthesis")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if hits, err := ix.SearchVectorContext(ctx, qv, Options{Limit: 10}); err != context.Canceled || hits != nil {
		t.Fatalf("cancelled Limit search = (%v, %v), want (nil, context.Canceled)", hits, err)
	}
}

// must returns v, panicking on err: the fixtures' corpora always index.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// runOf returns a term ID's postings in doc order, each paper with its TF:
// the run a term had before its postings were grouped by TF (none for
// corpus.NoTerm).
func runOf(ix *Index, t int32) ([]corpus.PaperID, []uint16) {
	type posting struct {
		doc corpus.PaperID
		tf  uint16
	}
	var run []posting
	lo, hi := int32(0), int32(0)
	if t >= 0 {
		lo, hi = ix.Segments(t)
	}
	for s := lo; s < hi; s++ {
		docs, f := ix.Segment(s)
		for _, d := range docs {
			run = append(run, posting{d, f})
		}
	}
	slices.SortFunc(run, func(a, b posting) int { return cmp.Compare(a.doc, b.doc) })
	docs, tfs := make([]corpus.PaperID, len(run)), make([]uint16, len(run))
	for i, p := range run {
		docs[i], tfs[i] = p.doc, p.tf
	}
	return docs, tfs
}
