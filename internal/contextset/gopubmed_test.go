package contextset

import (
	"testing"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
)

func TestBuildGoPubMedStyle(t *testing.T) {
	o := ontology.New()
	mustAdd := func(tm ontology.Term) {
		t.Helper()
		if err := o.Add(tm); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(ontology.Term{ID: "GO:1", Name: "molecular function"})
	mustAdd(ontology.Term{ID: "GO:2", Name: "zinc binding", Parents: []ontology.TermID{"GO:1"}})
	if err := o.Build(); err != nil {
		t.Fatal(err)
	}
	papers := []*corpus.Paper{
		// Term words in abstract → member.
		{ID: 0, Title: "x", Abstract: "we study zinc binding here", Body: "y", Authors: []string{"a"}},
		// Term words only in body → NOT a member (GoPubMed sees abstracts).
		{ID: 1, Title: "x", Abstract: "unrelated text entirely", Body: "zinc binding in the body", Authors: []string{"b"}},
		// Partial term words in abstract → member only at lower fraction.
		{ID: 2, Title: "x", Abstract: "zinc ions everywhere", Body: "y", Authors: []string{"c"}},
	}
	c, err := corpus.NewCorpus(papers)
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)

	strict := BuildGoPubMedStyle(a, o, 1.0)
	if !strict.Contains("GO:2", 0) {
		t.Fatal("abstract match missing")
	}
	if strict.Contains("GO:2", 1) {
		t.Fatal("body-only match must not count")
	}
	if strict.Contains("GO:2", 2) {
		t.Fatal("partial match must not count at fraction 1.0")
	}

	loose := BuildGoPubMedStyle(a, o, 0.5)
	if !loose.Contains("GO:2", 2) {
		t.Fatal("half the words should suffice at fraction 0.5")
	}
}

func TestAbstractCoverage(t *testing.T) {
	o, c, a, _ := fixture(t)
	cs := BuildGoPubMedStyle(a, o, 1.0)
	cov := AbstractCoverage(cs, c)
	if cov < 0 || cov > 1 {
		t.Fatalf("coverage = %v", cov)
	}
	// Looser matching covers at least as much.
	loose := BuildGoPubMedStyle(a, o, 0.5)
	if AbstractCoverage(loose, c) < cov {
		t.Fatal("looser fraction reduced coverage")
	}
}
