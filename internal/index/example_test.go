package index_test

import (
	"fmt"
	"log"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
)

func buildExampleIndex() *index.Index {
	papers := []*corpus.Paper{
		{ID: 0, Title: "rna polymerase structure", Abstract: "the rna polymerase complex", Body: "structural study", Authors: []string{"a"}},
		{ID: 1, Title: "dna repair pathways", Abstract: "repair of dna damage", Body: "pathway analysis", Authors: []string{"b"}},
	}
	c, err := corpus.NewCorpus(papers)
	if err != nil {
		log.Fatal(err)
	}
	return index.BuildWorkers(corpus.NewAnalyzerWorkers(c, 0), 0)
}

func ExampleIndex_Search() {
	ix := buildExampleIndex()
	hits := ix.Search("rna polymerase", index.Options{})
	fmt.Println(len(hits), hits[0].Doc)
	// Output: 1 0
}

func ExampleIndex_ParseQuery() {
	ix := buildExampleIndex()
	q, err := ix.ParseQuery(`("rna polymerase" OR dna) AND NOT damage`)
	if err != nil {
		log.Fatal(err)
	}
	hits, err := ix.SearchQuery(q, index.Options{})
	if err != nil {
		log.Fatal(err)
	}
	// Paper 1 mentions damage → excluded; paper 0 matches the phrase.
	fmt.Println(len(hits), hits[0].Doc)
	// Output: 1 0
}

func ExampleIndex_Snippet() {
	ix := buildExampleIndex()
	fmt.Println(ix.Snippet(1, "repair", index.SnippetOptions{Window: 4}))
	// Output: [repair] of dna damage
}
