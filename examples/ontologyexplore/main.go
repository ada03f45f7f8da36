// Ontologyexplore demonstrates the ontology substrate on its own: generate
// a GO-like DAG, serialise it to OBO, parse it back, and explore levels,
// descendants, information content and the RateOfDecay that governs
// inherited context scores — then show how restricting search to contexts
// controls output size, the headline property of context-based search.
package main

import (
	"bytes"
	"fmt"
	"log"

	"ctxsearch"
	"ctxsearch/internal/ontology"
)

func main() {
	// Generate and round-trip the ontology through OBO.
	gen, err := ontology.Generate(ontology.GenConfig{
		Seed: 7, NumTerms: 150, MaxDepth: 8, SecondParentProb: 0.15,
	})
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gen.WriteOBO(&buf); err != nil {
		log.Fatal(err)
	}
	oboBytes := buf.Len()
	onto, err := ontology.ParseOBO(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ontology: %d terms round-tripped through %d bytes of OBO\n", onto.Len(), oboBytes)

	// Level census.
	fmt.Println("\nterms per level (root = 1):")
	for l := 1; l <= onto.MaxLevel(); l++ {
		fmt.Printf("  level %d: %d terms\n", l, len(onto.TermsAtLevel(l)))
	}

	// Information content along one chain.
	var leaf ctxsearch.TermID
	for _, id := range onto.TermIDs() {
		if onto.Level(id) == onto.MaxLevel() {
			leaf = id
			break
		}
	}
	fmt.Printf("\ninformation content from %s up to its root:\n", leaf)
	cur := leaf
	for {
		fmt.Printf("  %-11s level %d  I(C)=%.3f  %q\n",
			cur, onto.Level(cur), onto.InformationContent(cur), onto.Term(cur).Name)
		parents := onto.Parents(cur)
		if len(parents) == 0 {
			break
		}
		fmt.Printf("      RateOfDecay(parent→here) = %.3f\n", onto.RateOfDecay(parents[0], cur))
		cur = parents[0]
	}

	// Output-size control: a corpus searched with and without contexts.
	cfg := ctxsearch.DefaultConfig()
	cfg.Papers = 600
	cfg.OntologyTerms = 150
	cfg.Seed = 7
	sys, err := ctxsearch.NewSyntheticSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	cs := sys.BuildTextContextSet()
	scores := sys.ScoreText(cs)
	engine := sys.Engine(scores)
	fmt.Println("\noutput-size control (context-based vs whole-corpus keyword):")
	shown := 0
	for _, ctx := range scores.Contexts() {
		query := sys.Ontology.Term(ctx).Name
		ctxN := len(engine.Search(query, ctxsearch.SearchOptions{}))
		baseN := len(sys.BaselineTFIDF(query, 0, 0))
		if baseN == 0 || ctxN == 0 {
			continue
		}
		fmt.Printf("  %-48.48q ctx %4d vs baseline %4d (−%2.0f%%)\n",
			query, ctxN, baseN, 100*(1-float64(ctxN)/float64(baseN)))
		shown++
		if shown >= 6 {
			break
		}
	}
}
