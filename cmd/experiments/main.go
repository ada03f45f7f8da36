// Command experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic corpus, plus the ablations and the §7
// extension measurement listed in DESIGN.md.
//
// Usage:
//
//	experiments [flags] [figure ...]
//
// Figures: fig5.1 fig5.2 fig5.3 fig5.4 fig5.5 fig5.6 fig5.7
// claim-baseline ablate-teleport ablate-hits ablate-cutoff ext-crossctx
// sparseness gopubmed clustering, or "all" (default). "scaling" runs the corpus-size
// sweep instead (expensive; controlled by -scaling-sizes).
//
// Flags:
//
//	-papers N   corpus size (default 2000)
//	-terms N    ontology size (default 400)
//	-queries N  evaluation queries (default 120)
//	-seed N     generator seed (default 1)
//	-csv DIR    also write each figure's data as CSV into DIR
//	-quiet      suppress progress lines
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"ctxsearch/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(errw)
	scale := experiments.DefaultScale()
	papers := fs.Int("papers", scale.Papers, "corpus size")
	terms := fs.Int("terms", scale.Terms, "ontology size")
	queries := fs.Int("queries", scale.Queries, "evaluation query count")
	seed := fs.Int64("seed", scale.Seed, "generator seed")
	csvDir := fs.String("csv", "", "directory for CSV exports (optional)")
	trecDir := fs.String("trec", "", "directory for TREC run/qrels export (optional)")
	scalingSizes := fs.String("scaling-sizes", "400,800,1600", "comma-separated corpus sizes for the scaling sweep")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale = experiments.Scale{Papers: *papers, Terms: *terms, Queries: *queries, Seed: *seed}

	figures := fs.Args()
	if len(figures) == 0 {
		figures = []string{"all"}
	}
	order := []string{
		"fig5.1", "fig5.2", "fig5.3", "fig5.4", "fig5.5", "fig5.6", "fig5.7",
		"claim-baseline", "ablate-teleport", "ablate-hits", "ablate-cutoff",
		"ext-crossctx", "sparseness", "gopubmed", "clustering",
	}
	// Every name is checked before anything is built: the setup alone takes
	// most of a minute at the default scale.
	for _, f := range figures {
		if f != "all" && !slices.Contains(order, f) && (f != "scaling" || len(figures) > 1) {
			return fmt.Errorf("unknown figure %q (valid: %v, all, or scaling alone)", f, order)
		}
	}
	var progress io.Writer = errw
	if *quiet {
		progress = nil
	}
	// The scaling sweep builds its own setups; handle it before the shared
	// setup so "experiments scaling" doesn't pay for an unused build.
	if len(figures) == 1 && figures[0] == "scaling" {
		sizes, err := parseSizes(*scalingSizes)
		if err != nil {
			return err
		}
		rows, err := experiments.ScalingSweep(sizes, *seed, progress)
		if err != nil {
			return err
		}
		experiments.RenderScaling(out, rows)
		return nil
	}
	setup, err := experiments.NewSetup(scale, progress)
	if err != nil {
		return err
	}
	if *trecDir != "" {
		if err := os.MkdirAll(*trecDir, 0o755); err != nil {
			return err
		}
		err := setup.TRECExport(func(name string) (io.WriteCloser, error) {
			return os.Create(filepath.Join(*trecDir, name))
		})
		if err != nil {
			return fmt.Errorf("trec export: %w", err)
		}
		fmt.Fprintf(errw, "TREC runs written to %s\n", *trecDir)
	}
	writeCSV := func(name string, fn func(io.Writer) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(errw, "csv: %v\n", err)
			return
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			fmt.Fprintf(errw, "csv: %v\n", err)
			return
		}
		defer f.Close()
		if err := fn(f); err != nil {
			fmt.Fprintf(errw, "csv %s: %v\n", name, err)
		}
	}
	all := map[string]func(){
		"fig5.1": func() {
			fig := setup.Fig51()
			experiments.RenderPrecision(out, fig)
			writeCSV("fig5.1.csv", func(w io.Writer) error { return experiments.WritePrecisionCSV(w, fig) })
		},
		"fig5.2": func() {
			fig := setup.Fig52()
			experiments.RenderPrecision(out, fig)
			writeCSV("fig5.2.csv", func(w io.Writer) error { return experiments.WritePrecisionCSV(w, fig) })
		},
		"fig5.3": func() {
			fig := setup.Fig53()
			experiments.RenderOverlap(out, fig)
			writeCSV("fig5.3.csv", func(w io.Writer) error { return experiments.WriteOverlapCSV(w, fig) })
		},
		"fig5.4": func() {
			a, b := setup.Fig54()
			experiments.RenderSeparability(out, a)
			experiments.RenderSeparability(out, b)
			writeCSV("fig5.4a.csv", func(w io.Writer) error { return experiments.WriteSeparabilityCSV(w, a) })
			writeCSV("fig5.4b.csv", func(w io.Writer) error { return experiments.WriteSeparabilityCSV(w, b) })
		},
		"fig5.5": func() {
			fig := setup.Fig55()
			experiments.RenderSeparability(out, fig)
			writeCSV("fig5.5.csv", func(w io.Writer) error { return experiments.WriteSeparabilityCSV(w, fig) })
		},
		"fig5.6": func() {
			fig := setup.Fig56()
			experiments.RenderSeparability(out, fig)
			writeCSV("fig5.6.csv", func(w io.Writer) error { return experiments.WriteSeparabilityCSV(w, fig) })
		},
		"fig5.7": func() {
			fig := setup.Fig57()
			experiments.RenderSeparability(out, fig)
			writeCSV("fig5.7.csv", func(w io.Writer) error { return experiments.WriteSeparabilityCSV(w, fig) })
		},
		"claim-baseline":  func() { experiments.RenderClaim(out, setup.ClaimBaseline()) },
		"ablate-teleport": func() { experiments.RenderTeleport(out, setup.AblateTeleport()) },
		"ablate-hits":     func() { experiments.RenderHITS(out, setup.AblateHITS()) },
		"ablate-cutoff":   func() { experiments.RenderCutoff(out, setup.AblateCutoff([]int{0, 5, 10, 25, 50, 100})) },
		"ext-crossctx":    func() { experiments.RenderCrossContext(out, setup.AblateCrossContext()) },
		"sparseness":      func() { experiments.RenderSparseness(out, setup.SparsenessByLevel()) },
		"gopubmed":        func() { experiments.RenderGoPubMed(out, setup.GoPubMedVsContextSets()) },
		"clustering":      func() { experiments.RenderClustering(out, setup.ClusteringVsContexts()) },
	}
	want := map[string]bool{}
	for _, f := range figures {
		if f == "all" {
			for _, k := range order {
				want[k] = true
			}
			continue
		}
		want[f] = true
	}
	for _, k := range order {
		if want[k] {
			all[k]()
		}
	}
	return nil
}

// parseSizes parses "400,800,1600".
func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad scaling size %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scaling sizes given")
	}
	return out, nil
}
