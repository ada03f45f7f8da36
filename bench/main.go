//go:build linux

// Command bench is the repository's end-to-end serving benchmark: it builds
// the real ctxsearch binary and a flat-v5 state file from the sources around
// it, boots a workload's serving shape as child processes, drives it from
// this process with two closed-loop clients, checks every sampled page
// against an in-process oracle and prints every metric by name. README.md in
// this directory describes the workloads and metrics; BENCHMARK.json at the
// root of the repository lists them for the driver.
//
// The driver's invocation, from the root of a checkout:
//
//	bash bench/run.sh --workload first_page --seed 7 --seconds 10 --trace 0
//
// -workload all runs the five workloads one after the other, untraced and
// traced; -aa runs the untraced suite twice over ten seeds and compares the
// two sets with the bounds, as the driver does before it accepts the
// benchmark.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
)

func main() {
	workload := flag.String("workload", "all", "workload to run: first_page | hot_cache | boolean_page | cluster_page | library_batch | all")
	seed := flag.Int64("seed", 1, "seed of the generated vocabulary and request lists")
	seconds := flag.Int("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run (spans in bench/out/trace.json)")
	aa := flag.Bool("aa", false, "run the untraced suite twice over ten seeds and compare the two sets with the bounds")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int, aa bool) error {
	if seconds < 1 || flag.NArg() > 0 || trace < 0 || trace > 1 {
		return fmt.Errorf("usage: bench --workload NAME --seed N --seconds S --trace 0|1")
	}
	if workload != "all" && !slices.ContainsFunc(workloads, func(w workloadDef) bool { return w.Name == workload }) {
		return fmt.Errorf("unknown workload %q", workload)
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "bench", "out")
	bin := filepath.Join(root, ".bench_build", "bin", "ctxsearch")
	e := &env{
		outDir:    outDir,
		statePath: filepath.Join(outDir, "state.v5"),
		seed:      seed,
		ps:        &procSet{bin: bin, outDir: outDir},
		client:    newHTTPClient(),
	}
	for _, dir := range []string{outDir, filepath.Dir(bin)} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}

	// Children live in their own process groups, so a signal to this
	// process does not reach them: stop them before going.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.ps.stopAll()
		os.Exit(130)
	}()

	if err := buildBinary(root, bin); err != nil {
		return err
	}
	switch {
	case aa:
		return e.runAA(workload, seconds)
	case workload == "all":
		incorrect := 0
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				fmt.Printf("== %s seed=%d trace=%v\n", w.Name, seed, traced)
				ok, err := e.report(w.Name, seconds, traced)
				if err != nil {
					return err
				}
				if !ok {
					incorrect++
				}
			}
		}
		if incorrect > 0 {
			return fmt.Errorf("%d runs had failed requests", incorrect)
		}
		return nil
	default:
		ok, err := e.report(workload, seconds, trace == 1)
		if err == nil && !ok {
			err = fmt.Errorf("run had failed requests")
		}
		return err
	}
}

// report performs one run and prints its metrics and result line.
func (e *env) report(workload string, seconds int, traced bool) (bool, error) {
	o, err := e.runOnce(workload, seconds, traced)
	if err != nil {
		return false, err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	return o.correct(), printOutcome(os.Stdout, defs, o)
}
