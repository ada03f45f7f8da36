package index

import (
	"testing"

	"ctxsearch/internal/bitset"
)

func TestParseQueryForms(t *testing.T) {
	ix, _ := buildTestIndex(t)
	cases := []string{
		"rna",
		"rna polymerase",
		"rna AND polymerase",
		"rna OR dna",
		"rna AND NOT metallurgy",
		`"rna polymerase" OR "dna repair"`,
		"(rna OR dna) AND repair",
		"NOT (dna OR steel) rna",
	}
	for _, q := range cases {
		parsed, err := ix.ParseQuery(q)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", q, err)
		}
		if parsed.String() == "" {
			t.Fatalf("empty rendering for %q", q)
		}
	}
}

func TestParseQueryErrors(t *testing.T) {
	ix, _ := buildTestIndex(t)
	cases := []string{
		"",
		`"unterminated`,
		"(rna",
		"rna )",
		"AND",
		"the of", // all stopwords → nothing left
		"NOT",
		"NOT the", // NOT over a stopword
	}
	for _, q := range cases {
		if _, err := ix.ParseQuery(q); err == nil {
			t.Errorf("ParseQuery(%q) should fail", q)
		}
	}
}

func TestSearchQueryAnd(t *testing.T) {
	ix, _ := buildTestIndex(t)
	q, err := ix.ParseQuery("rna AND splicing")
	if err != nil {
		t.Fatal(err)
	}
	hits, err := ix.SearchQuery(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Only paper 2 mentions both rna and splicing.
	if len(hits) != 1 || hits[0].Doc != 2 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestSearchQueryOr(t *testing.T) {
	ix, _ := buildTestIndex(t)
	q, err := ix.ParseQuery("splicing OR metallurgy")
	if err != nil {
		t.Fatal(err)
	}
	hits, err := ix.SearchQuery(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for _, h := range hits {
		got[int(h.Doc)] = true
	}
	if !got[2] || !got[3] || len(got) != 2 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestSearchQueryNot(t *testing.T) {
	ix, _ := buildTestIndex(t)
	q, err := ix.ParseQuery("rna AND NOT splicing")
	if err != nil {
		t.Fatal(err)
	}
	hits, err := ix.SearchQuery(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.Doc == 2 {
			t.Fatalf("NOT failed: %v", hits)
		}
	}
	if len(hits) == 0 {
		t.Fatal("no hits at all")
	}
}

func TestSearchQueryPhrase(t *testing.T) {
	ix, _ := buildTestIndex(t)
	// "rna polymerase" appears contiguously in paper 0 only; paper 2 has
	// "rna splicing" but not the phrase.
	q, err := ix.ParseQuery(`"rna polymerase"`)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := ix.SearchQuery(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Doc != 0 {
		t.Fatalf("phrase hits = %v", hits)
	}
	// The reversed phrase matches nothing.
	q, err = ix.ParseQuery(`"polymerase transcription rna"`)
	if err != nil {
		t.Fatal(err)
	}
	hits, err = ix.SearchQuery(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("reversed phrase matched: %v", hits)
	}
}

func TestSearchQueryStemmedMatching(t *testing.T) {
	ix, _ := buildTestIndex(t)
	// "mechanism" should match "mechanisms" via stemming (paper 1 title).
	q, err := ix.ParseQuery("mechanism")
	if err != nil {
		t.Fatal(err)
	}
	hits, err := ix.SearchQuery(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Doc != 1 {
		t.Fatalf("stemmed hits = %v", hits)
	}
}

func TestSearchQueryPureNegativeRejected(t *testing.T) {
	ix, _ := buildTestIndex(t)
	q, err := ix.ParseQuery("NOT rna")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.SearchQuery(q, Options{}); err == nil {
		t.Fatal("pure-negative query must be rejected")
	}
}

func TestSearchQueryWithinAndLimit(t *testing.T) {
	ix, _ := buildTestIndex(t)
	q, err := ix.ParseQuery("rna")
	if err != nil {
		t.Fatal(err)
	}
	var within bitset.Set
	within.Add(0)
	hits, err := ix.SearchQuery(q, Options{WithinSet: within, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Doc != 0 {
		t.Fatalf("within hits = %v", hits)
	}
	hits, err = ix.SearchQuery(q, Options{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("limit hits = %v", hits)
	}
}

func TestFieldScopedQuery(t *testing.T) {
	ix, _ := buildTestIndex(t)
	// "spliceosome" appears only in paper 2's body: a title-scoped query
	// must not match, a body-scoped one must.
	q, err := ix.ParseQuery("title:spliceosome")
	if err != nil {
		t.Fatal(err)
	}
	hits, err := ix.SearchQuery(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("title-scoped query matched: %v", hits)
	}
	q, err = ix.ParseQuery("body:spliceosome")
	if err != nil {
		t.Fatal(err)
	}
	hits, err = ix.SearchQuery(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Doc != 2 {
		t.Fatalf("body-scoped query = %v", hits)
	}
	// Field queries compose with boolean structure.
	q, err = ix.ParseQuery("title:rna AND NOT body:spliceosome")
	if err != nil {
		t.Fatal(err)
	}
	hits, err = ix.SearchQuery(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.Doc == 2 {
			t.Fatalf("NOT body: leaked: %v", hits)
		}
	}
	if len(hits) == 0 {
		t.Fatal("no hits for composed field query")
	}
	// Unknown field prefixes degrade to plain terms, not errors.
	if _, err := ix.ParseQuery("go:0000123"); err != nil {
		t.Fatalf("non-field colon term failed: %v", err)
	}
	// Stopword-only field terms are skipped; alone they fail the query.
	if _, err := ix.ParseQuery("title:the"); err == nil {
		t.Fatal("lone stopword field term must fail")
	}
	if _, err := ix.ParseQuery("title:the rna"); err != nil {
		t.Fatalf("stopword field term beside a real term must be skipped: %v", err)
	}
	// String rendering.
	q, _ = ix.ParseQuery("title:polymerase")
	if q.String() != "title:polymeras" {
		t.Fatalf("field rendering = %q", q.String())
	}
}

func TestParseQuerySkipsInteriorStopwords(t *testing.T) {
	ix, _ := buildTestIndex(t)
	// "of" normalises to nothing and must be silently dropped.
	q, err := ix.ParseQuery("repair of dna")
	if err != nil {
		t.Fatal(err)
	}
	hits, err := ix.SearchQuery(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Doc != 1 {
		t.Fatalf("hits = %v", hits)
	}
}
