package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"ctxsearch"
	"ctxsearch/internal/cluster"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
)

func (a *app) search(out io.Writer, args []string) error {
	query := strings.Join(args, " ")
	results, terms, err := a.engine.Page(context.Background(), query, a.boolean, ctxsearch.SearchOptions{Limit: a.limit})
	if err != nil {
		return fmt.Errorf("search: %w", err)
	}
	if len(results) == 0 {
		fmt.Fprintf(out, "no results for %q\n", query)
		return nil
	}
	fmt.Fprintf(out, "%d results for %q\n", len(results), query)
	snippets := a.sys.Index().Snippeter(terms, index.SnippetOptions{Window: 18})
	for i, r := range results {
		p := a.sys.Corpus.Paper(r.Doc)
		fmt.Fprintf(out, "%2d. [%.3f] PMID %d (%d) %s\n", i+1, r.Relevancy, p.PMID, p.Year, p.Title)
		fmt.Fprintf(out, "    prestige %.3f · match %.3f · context %s (%s)\n",
			r.Prestige, r.Match, r.Context, a.sys.Ontology.Term(r.Context).Name)
		if snip := snippets.Snippet(r.Doc); snip != "" {
			fmt.Fprintf(out, "    %s\n", snip)
		}
	}
	return nil
}

func (a *app) contexts(out io.Writer, args []string) error {
	query := strings.Join(args, " ")
	sel := a.engine.SelectContexts(query, ctxsearch.SearchOptions{})
	if len(sel) == 0 {
		fmt.Fprintf(out, "no contexts match %q\n", query)
		return nil
	}
	fmt.Fprintf(out, "%d contexts for %q\n", len(sel), query)
	for _, cs := range sel {
		t := a.sys.Ontology.Term(cs.Context)
		fmt.Fprintf(out, "  [%.2f] %s %q level %d, %d papers\n",
			cs.Score, cs.Context, t.Name, a.sys.Ontology.Level(cs.Context), a.cs.Size(cs.Context))
	}
	return nil
}

func (a *app) inspect(out io.Writer, args []string) error {
	id, err := strconv.Atoi(args[0])
	if err != nil {
		return fmt.Errorf("inspect: bad paper ID %q", args[0])
	}
	p := a.sys.Corpus.Paper(ctxsearch.PaperID(id))
	if p == nil {
		return fmt.Errorf("inspect: no paper %d", id)
	}
	fmt.Fprintf(out, "paper %d · PMID %d · %d\n", p.ID, p.PMID, p.Year)
	fmt.Fprintf(out, "title:    %s\n", p.Title)
	fmt.Fprintf(out, "authors:  %v\n", p.Authors)
	fmt.Fprintf(out, "refs:     %d out, %d in\n", len(p.References), len(a.sys.Corpus.CitedBy(p.ID)))
	fmt.Fprintf(out, "contexts:\n")
	for _, ctx := range a.cs.ContextsOf(p.ID) {
		score := a.matrix.Get(ctx, p.ID)
		fmt.Fprintf(out, "  %s %q prestige %.3f\n", ctx, a.sys.Ontology.Term(ctx).Name, score)
	}
	return nil
}

func (a *app) stats(out io.Writer, _ []string) error {
	o, c := a.sys.Ontology, a.sys.Corpus
	fmt.Fprintf(out, "ontology: %d terms, %d roots, max level %d\n", o.Len(), len(o.Roots()), o.MaxLevel())
	fmt.Fprintf(out, "corpus:   %d papers, %d indexed terms\n", c.Len(), a.sys.Index().Terms())
	cst := corpus.ComputeStats(c, a.sys.Analyzer())
	fmt.Fprintf(out, "tokens:   %d total, %.0f per paper, vocabulary %d\n", cst.TotalTokens, cst.MeanTokens, cst.Vocabulary)
	fmt.Fprintf(out, "citations: %d edges, %.1f refs/paper, max in-degree %d, %.0f%% uncited\n",
		cst.TotalCitations, cst.MeanOutDegree, cst.MaxInDegree, 100*cst.UncitedFraction)
	fmt.Fprintf(out, "evidence: %d terms, %d papers · years %d–%d\n",
		cst.EvidenceTerms, cst.EvidencePapers, cst.MinYear, cst.MaxYear)
	ctxs := a.cs.Contexts()
	fmt.Fprintf(out, "context set (%s): %d non-empty contexts\n", a.cs.Kind(), len(ctxs))
	minSize := a.sys.MinContextSize()
	fmt.Fprintf(out, "scored contexts (> %d papers): %d\n", minSize, a.matrix.NumContexts())
	var sum int
	for _, ctx := range ctxs {
		sum += a.cs.Size(ctx)
	}
	if len(ctxs) > 0 {
		fmt.Fprintf(out, "mean context size: %.1f papers\n", float64(sum)/float64(len(ctxs)))
	}
	return nil
}

// sim prints semantic similarity between two terms (by ID or exact name).
func (a *app) sim(out io.Writer, args []string) error {
	t1, err := a.resolveTerm(args[0])
	if err != nil {
		return err
	}
	t2, err := a.resolveTerm(args[1])
	if err != nil {
		return err
	}
	o := a.sys.Ontology
	fmt.Fprintf(out, "%s %q (level %d, I=%.3f)\n", t1, o.Term(t1).Name, o.Level(t1), o.InformationContent(t1))
	fmt.Fprintf(out, "%s %q (level %d, I=%.3f)\n", t2, o.Term(t2).Name, o.Level(t2), o.InformationContent(t2))
	mica := o.MostInformativeCommonAncestor(t1, t2)
	if mica == "" {
		fmt.Fprintln(out, "no common ancestor (different namespaces)")
		return nil
	}
	fmt.Fprintf(out, "MICA: %s %q\n", mica, o.Term(mica).Name)
	fmt.Fprintf(out, "Resnik similarity: %.3f\n", o.ResnikSimilarity(t1, t2))
	fmt.Fprintf(out, "Lin similarity:    %.3f\n", o.LinSimilarity(t1, t2))
	return nil
}

// related prints the terms most Lin-similar to the given term.
func (a *app) related(out io.Writer, args []string) error {
	t, err := a.resolveTerm(strings.Join(args, " "))
	if err != nil {
		return err
	}
	o := a.sys.Ontology
	type ts struct {
		id  ctxsearch.TermID
		lin float64
	}
	var all []ts
	for _, other := range o.TermIDs() {
		if other == t {
			continue
		}
		if lin := o.LinSimilarity(t, other); lin > 0 {
			all = append(all, ts{other, lin})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].lin != all[j].lin {
			return all[i].lin > all[j].lin
		}
		return all[i].id < all[j].id
	})
	fmt.Fprintf(out, "terms related to %s %q:\n", t, o.Term(t).Name)
	for i, e := range all {
		if i >= a.limit {
			break
		}
		fmt.Fprintf(out, "  [%.3f] %s %q\n", e.lin, e.id, o.Term(e.id).Name)
	}
	return nil
}

// cluster groups the top keyword results of a query with k-means and
// prints the labelled clusters — the automatically-derived contexts of the
// paper's §6 related work, for side-by-side comparison with ontology
// contexts.
func (a *app) cluster(out io.Writer, args []string) error {
	query := strings.Join(args, " ")
	hits := ctxsearchBaseline(a.sys, query, 60)
	if len(hits) < 4 {
		fmt.Fprintf(out, "only %d results for %q — too few to cluster\n", len(hits), query)
		return nil
	}
	clusters, err := cluster.KMeans(a.sys.Analyzer(), hits)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d clusters over %d results for %q\n", len(clusters), len(hits), query)
	for i, cl := range clusters {
		fmt.Fprintf(out, "cluster %d [%s] — %d papers\n", i+1, strings.Join(cl.Label, ", "), len(cl.Docs))
		for j, id := range cl.Docs {
			if j >= 3 {
				fmt.Fprintf(out, "    … and %d more\n", len(cl.Docs)-3)
				break
			}
			p := a.sys.Corpus.Paper(id)
			fmt.Fprintf(out, "    PMID %d %.60s\n", p.PMID, p.Title)
		}
	}
	return nil
}

// ctxsearchBaseline returns the top-N TF-IDF hits' paper IDs.
func ctxsearchBaseline(sys *ctxsearch.System, query string, n int) []ctxsearch.PaperID {
	hits := sys.BaselineTFIDF(query, 0, n)
	out := make([]ctxsearch.PaperID, len(hits))
	for i, h := range hits {
		out[i] = h.Doc
	}
	return out
}

// exporters maps export's format names to the corpus writers; validate
// refuses a name it does not hold.
var exporters = map[string]func(io.Writer, *corpus.Corpus) error{
	"jsonl": corpus.WriteJSONL,
	"gaf":   corpus.WriteGAF,
}

// export writes the corpus in an interchange format.
func (a *app) export(out io.Writer, args []string) error {
	format, path := args[0], args[1]
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := exporters[format](f, a.sys.Corpus); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s export to %s\n", format, path)
	return nil
}

// resolveTerm accepts a term ID or an exact (case-insensitive) term name.
func (a *app) resolveTerm(s string) (ctxsearch.TermID, error) {
	o := a.sys.Ontology
	if t := o.Term(ctxsearch.TermID(s)); t != nil {
		return ctxsearch.TermID(s), nil
	}
	lower := strings.ToLower(s)
	for _, id := range o.TermIDs() {
		if strings.ToLower(o.Term(id).Name) == lower {
			return id, nil
		}
	}
	return "", fmt.Errorf("unknown term %q (use a GO:… ID or an exact name)", s)
}
