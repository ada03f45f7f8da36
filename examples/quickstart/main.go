// Quickstart: build a synthetic literature system, assign papers to
// ontology contexts, compute text-based prestige scores, and run one
// context-based search — the paper's five tasks in ~40 lines.
package main

import (
	"fmt"
	"log"

	"ctxsearch"
)

func main() {
	cfg := ctxsearch.DefaultConfig()
	cfg.Papers = 800 // keep the demo snappy
	cfg.OntologyTerms = 150

	sys, err := ctxsearch.NewSyntheticSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d papers · ontology: %d terms\n", sys.Corpus.Len(), sys.Ontology.Len())

	// Task 1: assign papers to contexts (text-based context paper set).
	cs := sys.BuildTextContextSet()
	fmt.Printf("context paper set: %d non-empty contexts\n", len(cs.Contexts()))

	// Task 2: compute prestige scores (text-based score function).
	scores := sys.ScoreText(cs)
	fmt.Printf("scored contexts (above size cutoff %d): %d\n", sys.MinContextSize(), scores.NumContexts())

	// Tasks 3–5: select contexts, search within them, rank by relevancy.
	engine := sys.Engine(scores)
	query := sys.Ontology.Term(scores.Contexts()[0]).Name
	fmt.Printf("\nquery: %q\n", query)

	for i, r := range engine.Search(query, ctxsearch.SearchOptions{Limit: 5}) {
		p := sys.Corpus.Paper(r.Doc)
		ctxName := sys.Ontology.Term(r.Context).Name
		fmt.Printf("%d. [relevancy %.3f] %s\n", i+1, r.Relevancy, p.Title)
		fmt.Printf("   prestige %.3f in context %q · text match %.3f\n", r.Prestige, ctxName, r.Match)
	}

	// Contrast with the unranked PubMed-style baseline.
	baseline := sys.BaselinePubMed(query)
	fmt.Printf("\nPubMed-style baseline returns %d unranked papers for the same query\n", len(baseline))
}
