package index

import (
	"context"
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
	return BuildWorkers(corpus.NewAnalyzerWorkers(c, 0), 0), c
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

// TestSearchWithin: a bitset restriction keeps only its documents, on the
// exhaustive path and on the pruned top-k path alike.
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
	qv := ix.Analyzer().QueryVector("rna polymerase")
	s0 := matchScore(ix, qv, 0)
	s3 := matchScore(ix, qv, 3)
	if s0 <= s3 {
		t.Fatalf("match scores wrong: s0=%v s3=%v", s0, s3)
	}
	if got := matchScore(ix, qv, corpus.PaperID(99)); got != 0 {
		t.Fatalf("out-of-range doc = %v", got)
	}
	if got := matchScore(ix, vector.New(), 0); got != 0 {
		t.Fatalf("empty query = %v", got)
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
	ix := BuildWorkers(corpus.NewAnalyzerWorkers(c, 0), 0)
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
