// Command storebench measures state-file cold start: the wall time and
// memory cost of going from a file on disk to engine-ready bound state, gob
// (v3) versus flat-binary mmap (v4, and v5 with persisted block-max
// tables), at one and many concurrent processes.
//
// The parent builds one synthetic state, saves it in both formats, then
// re-execs itself as child processes that each open the file, bind every
// section (context set, matrices, index parts, DF — first-touch CRC
// included) and report wall time plus VmRSS and proportional-set-size (PSS)
// deltas from /proc. PSS is the number that shows the v4 win at fleet
// scale: N processes mapping one file share its pages, N gob processes
// each hold a private decoded heap.
//
//	go run ./cmd/storebench -procs 1,8 -out BENCH_PR8.json
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
		papers  = flag.Int("papers", 2000, "synthetic corpus size")
		terms   = flag.Int("terms", 250, "synthetic ontology size")
		procs   = flag.String("procs", "1,8", "comma-separated process counts")
		out     = flag.String("out", "", "write the JSON report here (default stdout)")
		formats = flag.String("state-formats", "v3,v4,v5", "comma-separated state formats to measure (v3|v4|v5)")
		child   = flag.Bool("child", false, "internal: run one open+bind measurement and exit")
		format  = flag.String("format", "", "internal: child state format (v3|v4|v5)")
		path    = flag.String("path", "", "internal: child state file path")
	)
	flag.Parse()
	if *child {
		if err := runChild(*format, *path, *terms); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := runParent(*papers, *terms, *procs, *formats, *out); err != nil {
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
func runChild(format, path string, terms int) error {
	o, err := buildOntology(terms)
	if err != nil {
		return err
	}
	rss0, pss0 := procMem()
	start := time.Now()
	switch format {
	case "v3":
		st, err := store.LoadFile(path, o)
		if err != nil {
			return err
		}
		for name := range st.Matrices {
			if st.Matrix(name) == nil {
				return fmt.Errorf("matrix %q missing", name)
			}
		}
	case "v4", "v5":
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
		parts, err := m.IndexParts()
		if err != nil {
			return err
		}
		if parts != nil {
			// v4 states carry no block-max tables; engine bind recomputes
			// them over every posting (v5 binds them zero-copy). Charge
			// that cost here so the formats stay comparable end to end.
			parts.EnsureBlockTables(0)
		}
		if _, err := m.DF(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -format %q", format)
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

// formatRun aggregates one (format, procs) cell of the report.
type formatRun struct {
	Procs        int     `json:"procs"`
	MeanOpenMS   float64 `json:"mean_open_ms"`
	MaxOpenMS    float64 `json:"max_open_ms"`
	TotalRSSKB   int64   `json:"total_rss_delta_kb"`
	TotalPSSKB   int64   `json:"total_pss_delta_kb"`
	PerProcPSSKB int64   `json:"per_proc_pss_delta_kb"`
}

type report struct {
	PR       int                    `json:"pr"`
	Title    string                 `json:"title"`
	Machine  string                 `json:"machine"`
	Method   string                 `json:"method"`
	Corpus   map[string]int         `json:"corpus"`
	FileSize map[string]int64       `json:"state_file_bytes"`
	Runs     map[string][]formatRun `json:"runs"`
	// Errors records formats that failed to save, open or measure. A
	// failing format is reported here and skipped; the other formats'
	// numbers still land in Runs, so one broken decoder (or a corrupt
	// file) never voids the whole comparison.
	Errors map[string]string `json:"errors,omitempty"`
	Note   string            `json:"note"`
}

func runParent(papers, terms int, procsSpec, formatsSpec, out string) error {
	var counts []int
	for _, s := range strings.Split(procsSpec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -procs entry %q", s)
		}
		counts = append(counts, n)
	}
	savers := map[string]func(string, *store.State) error{
		"v3": store.SaveFile,
		"v4": store.SaveFileV4,
		"v5": store.SaveFileV5,
	}
	var formats []string
	for _, s := range strings.Split(formatsSpec, ",") {
		f := strings.TrimSpace(s)
		if savers[f] == nil {
			return fmt.Errorf("bad -state-formats entry %q (want v3|v4|v5)", s)
		}
		formats = append(formats, f)
	}
	if len(formats) == 0 {
		return fmt.Errorf("-state-formats selects no formats")
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
	cs := contextset.BuildTextBased(index.Build(a), o, contextset.DefaultConfig())
	st := &store.State{
		ContextSet: cs,
		Matrices: map[string]*prestige.Matrix{
			"text":     prestige.ScoreAll(prestige.NewTextScorer(a, prestige.DefaultTextWeights()), cs, 0).Freeze(),
			"citation": prestige.ScoreAll(prestige.NewCitationScorer(c, citegraph.PageRankOpts{}), cs, 0).Freeze(),
		},
		Index: index.Build(a).Parts(),
		DF:    a.DF(),
	}

	dir, err := os.MkdirTemp("", "storebench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// Per-format faults — a save, stat or child failure — mark the format
	// failed and drop it from the sweep; the remaining formats still
	// report. failed formats land in the report's errors section.
	failed := map[string]string{}
	fail := func(format string, err error) {
		fmt.Fprintf(os.Stderr, "%s: %v (skipping format)\n", format, err)
		failed[format] = err.Error()
	}
	paths := make(map[string]string, len(formats))
	for _, f := range formats {
		p := filepath.Join(dir, "state."+f)
		if err := savers[f](p, st); err != nil {
			fail(f, fmt.Errorf("save: %w", err))
			continue
		}
		paths[f] = p
	}

	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{
		PR:       8,
		Title:    "Zero-copy mmap state format (v4): O(1) cold start for shards and replicas",
		Machine:  fmt.Sprintf("%s, %s/%s", cpuModel(), runtime.GOOS, runtime.GOARCH),
		Method:   "each process opens the state file and binds every section (context set, matrices, index parts, DF; flat-format first-touch CRC included, plus the block-max table recompute that binding a state without persisted tables pays — v5 carries them, v3/v4 recompute); times exclude ontology generation; memory deltas from /proc/self/{status,smaps_rollup}; see `make bench-store`.",
		Corpus:   map[string]int{"papers": papers, "ontology_terms": terms},
		FileSize: map[string]int64{},
		Runs:     map[string][]formatRun{},
		Note:     "total_pss_delta_kb is the fleet-scale number: v4 processes share the mapped pages, gob processes each hold a private decoded heap.",
	}
	for f, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			fail(f, fmt.Errorf("stat: %w", err))
			delete(paths, f)
			continue
		}
		rep.FileSize[f] = fi.Size()
	}

	for _, format := range formats {
		if _, ok := paths[format]; !ok {
			continue
		}
		for _, n := range counts {
			run, err := spawn(self, format, paths[format], terms, n)
			if err != nil {
				// Every child of this format opens the same file the same
				// way; further process counts would fail identically.
				fail(format, fmt.Errorf("x%d: %w", n, err))
				delete(rep.Runs, format)
				break
			}
			rep.Runs[format] = append(rep.Runs[format], run)
			fmt.Fprintf(os.Stderr, "%s x%d: mean open %.2fms, max %.2fms, total pss delta %d KB\n",
				format, n, run.MeanOpenMS, run.MaxOpenMS, run.TotalPSSKB)
		}
	}
	if len(failed) > 0 {
		rep.Errors = failed
	}
	if len(rep.Runs) == 0 {
		return fmt.Errorf("every state format failed: %v", failed)
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
func spawn(self, format, path string, terms, n int) (formatRun, error) {
	type res struct {
		rep childReport
		err error
	}
	ch := make(chan res, n)
	for i := 0; i < n; i++ {
		go func() {
			cmd := exec.Command(self, "-child", "-format", format, "-path", path, "-terms", strconv.Itoa(terms))
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
	run := formatRun{Procs: n}
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
