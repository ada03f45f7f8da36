// Command storebench measures what nothing else in the repository does:
// the memory N processes pay for serving one state file. The parent builds
// one synthetic state and saves it, then re-execs itself as child processes
// that each open the file, bind every section (context set, matrices, index
// parts, DF — first-touch CRC included) and report wall time plus VmRSS and
// proportional-set-size (PSS) deltas from /proc. PSS is the fleet-scale
// number: processes mapping one file share its pages.
//
//	go run ./cmd/storebench -procs 1,8
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ctxsearch/internal/citegraph"
	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/prestige"
	"ctxsearch/internal/store"
)

const (
	ontologySeed = 9
	maxDepth     = 7
)

func main() {
	var (
		papers = flag.Int("papers", 2000, "synthetic corpus size")
		terms  = flag.Int("terms", 250, "synthetic ontology size")
		procs  = flag.String("procs", "1,8", "comma-separated process counts")
		out    = flag.String("out", "", "write the JSON report here (default stdout)")
		child  = flag.Bool("child", false, "internal: run one open+bind measurement and exit")
		path   = flag.String("path", "", "internal: child state file path")
	)
	flag.Parse()
	if *child {
		if err := runChild(*path, *terms); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := runParent(*papers, *terms, *procs, *out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// childReport is one child process's measurement, printed as a JSON line.
type childReport struct {
	OpenMS     float64 `json:"open_ms"`
	RSSDeltaKB int64   `json:"rss_delta_kb"`
	PSSDeltaKB int64   `json:"pss_delta_kb"`
}

func buildOntology(terms int) (*ontology.Ontology, error) {
	return ontology.Generate(ontology.GenConfig{Seed: ontologySeed, NumTerms: terms, MaxDepth: maxDepth})
}

// runChild opens the state and binds every section, timing only that.
func runChild(path string, terms int) error {
	o, err := buildOntology(terms)
	if err != nil {
		return err
	}
	rss0, pss0 := procMem()
	start := time.Now()
	m, err := store.Open(path, o)
	if err != nil {
		return err
	}
	defer m.Close()
	if _, err := m.ContextSet(); err != nil {
		return err
	}
	for _, name := range m.MatrixNames() {
		if _, err := m.Matrix(name); err != nil {
			return err
		}
	}
	if _, err := m.IndexParts(); err != nil {
		return err
	}
	if _, err := m.DF(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	rss1, pss1 := procMem()
	return json.NewEncoder(os.Stdout).Encode(childReport{
		OpenMS:     float64(elapsed.Microseconds()) / 1000,
		RSSDeltaKB: rss1 - rss0,
		PSSDeltaKB: pss1 - pss0,
	})
}

// procMem reads VmRSS (KB) from /proc/self/status and Pss (KB) from
// /proc/self/smaps_rollup. Zeroes on non-Linux.
func procMem() (rssKB, pssKB int64) {
	rssKB = procField("/proc/self/status", "VmRSS:")
	pssKB = procField("/proc/self/smaps_rollup", "Pss:")
	return
}

func procField(path, prefix string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		n, _ := strconv.ParseInt(fields[1], 10, 64)
		return n
	}
	return 0
}

// procRun aggregates the children of one process count.
type procRun struct {
	Procs        int     `json:"procs"`
	MeanOpenMS   float64 `json:"mean_open_ms"`
	MaxOpenMS    float64 `json:"max_open_ms"`
	TotalRSSKB   int64   `json:"total_rss_delta_kb"`
	TotalPSSKB   int64   `json:"total_pss_delta_kb"`
	PerProcPSSKB int64   `json:"per_proc_pss_delta_kb"`
}

type report struct {
	Machine  string         `json:"machine"`
	Method   string         `json:"method"`
	Corpus   map[string]int `json:"corpus"`
	FileSize int64          `json:"state_file_bytes"`
	Runs     []procRun      `json:"runs"`
}

func runParent(papers, terms int, procsSpec, out string) error {
	var counts []int
	for _, s := range strings.Split(procsSpec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -procs entry %q", s)
		}
		counts = append(counts, n)
	}

	fmt.Fprintf(os.Stderr, "building synthetic state (%d papers, %d terms)...\n", papers, terms)
	o, err := buildOntology(terms)
	if err != nil {
		return err
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(papers))
	if err != nil {
		return err
	}
	a := corpus.NewAnalyzer(c)
	ix := index.Build(a)
	cs := contextset.BuildTextBased(ix, o, contextset.DefaultConfig())
	st := &store.State{
		ContextSet: cs,
		Matrices: map[string]*prestige.Matrix{
			"text":     prestige.ScoreAll(prestige.NewTextScorer(a, prestige.DefaultTextWeights()), cs, 0).Freeze(),
			"citation": prestige.ScoreAll(prestige.NewCitationScorer(c, citegraph.PageRankOpts{}), cs, 0).Freeze(),
		},
		Index: ix.Parts(),
		DF:    a.DF(),
	}

	dir, err := os.MkdirTemp("", "storebench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "state.bin")
	if err := store.SaveFile(path, st); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{
		Machine:  fmt.Sprintf("%s, %s/%s", cpuModel(), runtime.GOOS, runtime.GOARCH),
		Method:   "each process opens the state file and binds every section (context set, matrices, index parts with their block-max tables, DF; first-touch CRC included); times exclude ontology generation; memory deltas from /proc/self/{status,smaps_rollup}; total_pss_delta_kb is the fleet-scale number — the processes share the mapped pages; see `make bench-store`.",
		Corpus:   map[string]int{"papers": papers, "ontology_terms": terms},
		FileSize: fi.Size(),
	}
	for _, n := range counts {
		run, err := spawn(self, path, terms, n)
		if err != nil {
			return fmt.Errorf("x%d: %w", n, err)
		}
		rep.Runs = append(rep.Runs, run)
		fmt.Fprintf(os.Stderr, "x%d: mean open %.2fms, max %.2fms, total pss delta %d KB\n",
			n, run.MeanOpenMS, run.MaxOpenMS, run.TotalPSSKB)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}

// spawn launches n concurrent children and folds their reports.
func spawn(self, path string, terms, n int) (procRun, error) {
	type res struct {
		rep childReport
		err error
	}
	ch := make(chan res, n)
	for i := 0; i < n; i++ {
		go func() {
			cmd := exec.Command(self, "-child", "-path", path, "-terms", strconv.Itoa(terms))
			cmd.Stderr = os.Stderr
			outBytes, err := cmd.Output()
			if err != nil {
				ch <- res{err: err}
				return
			}
			var r childReport
			if err := json.Unmarshal(outBytes, &r); err != nil {
				ch <- res{err: fmt.Errorf("bad child output %q: %w", outBytes, err)}
				return
			}
			ch <- res{rep: r}
		}()
	}
	run := procRun{Procs: n}
	for i := 0; i < n; i++ {
		r := <-ch
		if r.err != nil {
			return run, r.err
		}
		run.MeanOpenMS += r.rep.OpenMS
		if r.rep.OpenMS > run.MaxOpenMS {
			run.MaxOpenMS = r.rep.OpenMS
		}
		run.TotalRSSKB += r.rep.RSSDeltaKB
		run.TotalPSSKB += r.rep.PSSDeltaKB
	}
	run.MeanOpenMS /= float64(n)
	run.PerProcPSSKB = run.TotalPSSKB / int64(n)
	return run, nil
}

// cpuModel reads the first "model name" from /proc/cpuinfo, best effort.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}
