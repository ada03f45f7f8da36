// Comparerank reproduces the paper's core comparison interactively: the
// same query ranked by all three prestige score functions side by side,
// with rank-agreement statistics — the motivation for §5's accuracy and
// separability analysis.
package main

import (
	"fmt"
	"log"

	"ctxsearch"
	"ctxsearch/internal/prestige"
)

func main() {
	cfg := ctxsearch.DefaultConfig()
	cfg.Papers = 800
	cfg.OntologyTerms = 150

	sys, err := ctxsearch.NewSyntheticSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// The pattern-based context paper set supports all three functions.
	cs := sys.BuildPatternContextSet()

	fmt.Println("computing prestige scores with all three functions…")
	scoresByFn := map[string]*ctxsearch.Matrix{
		"citation": sys.ScoreCitation(cs),
		"text":     textScores(sys, cs),
		"pattern":  sys.ScorePattern(cs),
	}

	query := pickQuery(sys, scoresByFn["pattern"])
	fmt.Printf("\nquery: %q\n", query)

	const topN = 8
	ranks := map[string][]ctxsearch.PaperID{}
	for _, fn := range []string{"citation", "text", "pattern"} {
		scores := scoresByFn[fn]
		if scores.NumContexts() == 0 {
			fmt.Printf("\n[%s] no scored contexts (function not applicable to this set)\n", fn)
			continue
		}
		engine := sys.Engine(scores)
		results := engine.Search(query, ctxsearch.SearchOptions{Limit: topN})
		fmt.Printf("\n[%s-based ranking]\n", fn)
		for i, r := range results {
			p := sys.Corpus.Paper(r.Doc)
			fmt.Printf("  %d. [%.3f] PMID %d %.60s…\n", i+1, r.Relevancy, p.PMID, p.Title)
			ranks[fn] = append(ranks[fn], r.Doc)
		}
	}

	// Top-k overlap between each pair — the paper's §2 agreement metric.
	fmt.Printf("\ntop-%d agreement between functions:\n", topN)
	pairs := [][2]string{{"text", "citation"}, {"text", "pattern"}, {"citation", "pattern"}}
	for _, pair := range pairs {
		a, b := ranks[pair[0]], ranks[pair[1]]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		set := map[ctxsearch.PaperID]bool{}
		for _, id := range a {
			set[id] = true
		}
		inter := 0
		for _, id := range b {
			if set[id] {
				inter++
			}
		}
		den := len(a)
		if len(b) < den {
			den = len(b)
		}
		fmt.Printf("  %s vs %s: %d/%d overlap\n", pair[0], pair[1], inter, den)
	}
}

// textScores assigns text scores to pattern-set contexts by borrowing
// representatives from the text-based set, as the paper's §4 does: the
// pattern set has none of its own.
func textScores(sys *ctxsearch.System, cs *ctxsearch.ContextSet) *ctxsearch.Matrix {
	scorer := sys.TextScorer().WithRepSource(sys.BuildTextContextSet())
	return prestige.PropagateMax(sys.Ontology, prestige.Score(scorer, cs, sys.MinContextSize(), 0))
}

// pickQuery returns the name of a scored context with a healthy paper
// count, so every function has something to rank.
func pickQuery(sys *ctxsearch.System, scores *ctxsearch.Matrix) string {
	best := ""
	bestN := 0
	for i, ctx := range scores.Contexts() {
		if n := len(scores.RunAt(i).Docs); n > bestN {
			bestN = n
			best = sys.Ontology.Term(ctx).Name
		}
	}
	return best
}
