// Genomics walks the paper's motivating workflow: a curator searching
// biomedical literature by GO concept. It builds the pattern-based context
// paper set, drills down the hierarchy showing how context size and
// citation-graph sparseness change with depth (the paper's §5 diagnosis),
// and lists the most prestigious papers of a deep context under each score
// function.
package main

import (
	"fmt"
	"log"
	"sort"

	"ctxsearch"
)

func main() {
	cfg := ctxsearch.DefaultConfig()
	cfg.Papers = 800
	cfg.OntologyTerms = 150

	sys, err := ctxsearch.NewSyntheticSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	cs := sys.BuildPatternContextSet()
	cit := sys.CitationScorer()

	// Pick a root-to-leaf chain of scored contexts to drill down.
	chain := drillDownChain(sys, cs)
	if len(chain) == 0 {
		log.Fatal("no drill-down chain found")
	}
	fmt.Println("drilling down the context hierarchy:")
	fmt.Printf("%-7s %-10s %7s %12s  %s\n", "level", "term", "papers", "sparseness", "name")
	for _, ctx := range chain {
		fmt.Printf("%-7d %-10s %7d %12.4f  %.48s\n",
			sys.Ontology.Level(ctx), ctx, cs.Size(ctx),
			cit.ContextSparseness(cs, ctx), sys.Ontology.Term(ctx).Name)
	}
	fmt.Println("\n(the paper's §5: deeper contexts are smaller and their citation")
	fmt.Println(" graphs sparser, which is what hurts the citation-based function)")

	// Score the deepest context in the chain with all three functions.
	target := chain[len(chain)-1]
	fmt.Printf("\nmost prestigious papers in %q:\n", sys.Ontology.Term(target).Name)

	citScores := sys.ScoreCitation(cs)
	patScores := sys.ScorePattern(cs)
	for _, fn := range []struct {
		name   string
		scores *ctxsearch.Matrix
	}{{"citation", citScores}, {"pattern", patScores}} {
		top := fn.scores.Run(target).TopK(3)
		fmt.Printf("\n  by %s-based prestige:\n", fn.name)
		if len(top) == 0 {
			fmt.Println("    (context below scoring cutoff)")
			continue
		}
		for i, id := range top {
			p := sys.Corpus.Paper(id)
			fmt.Printf("    %d. [%.3f] PMID %d %.55s…\n",
				i+1, fn.scores.Get(target, id), p.PMID, p.Title)
		}
	}

	// Show the information-content decay machinery on the chain.
	fmt.Println("\ninformation content down the chain (deeper = more informative):")
	for _, ctx := range chain {
		fmt.Printf("  %-10s level %d  I(C) = %.3f  decay multiplier %.3f\n",
			ctx, sys.Ontology.Level(ctx), sys.Ontology.InformationContent(ctx), cs.Decay(ctx))
	}
}

// drillDownChain finds the longest ancestor chain of non-empty contexts
// (by walking parents up from the deepest non-empty context).
func drillDownChain(sys *ctxsearch.System, cs *ctxsearch.ContextSet) []ctxsearch.TermID {
	ctxs := cs.ContextsWithMinSize(3)
	if len(ctxs) == 0 {
		return nil
	}
	sort.Slice(ctxs, func(i, j int) bool {
		return sys.Ontology.Level(ctxs[i]) > sys.Ontology.Level(ctxs[j])
	})
	deepest := ctxs[0]
	chain := []ctxsearch.TermID{deepest}
	cur := deepest
	for {
		parents := sys.Ontology.Parents(cur)
		if len(parents) == 0 || sys.Ontology.Level(parents[0]) < 2 {
			break
		}
		cur = parents[0]
		chain = append([]ctxsearch.TermID{cur}, chain...)
	}
	return chain
}
