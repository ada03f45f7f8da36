//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ctxsearch/internal/server"
)

// env is what every step of a run shares: where the binary and the outputs
// live, the seed, the child processes and the HTTP client.
type env struct {
	outDir    string // bench/out: state file, child logs, trace.json
	statePath string
	seed      int64 // of every generated request
	ps        *procSet
	client    *http.Client
}

// buildBinary compiles the real ctxsearch binary into the build directory.
// The go tool keeps the output when it is already up to date, so only the
// first run in a checkout pays for compilation.
func buildBinary(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ctxsearch")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/ctxsearch: %v\n%s", err, out)
	}
	return nil
}

// corpusArgs are the flags that make the binary generate the benchmark's
// corpus and use its state file.
func (e *env) corpusArgs() []string {
	return []string{
		"-papers", strconv.Itoa(corpusPapers),
		"-terms", strconv.Itoa(corpusTerms),
		"-seed", strconv.Itoa(corpusSeed),
		"-state", e.statePath,
	}
}

// buildState runs the offline build, `ctxsearch -state ... -state-format v5
// -v build`, and returns its wall time and the per-stage times it prints.
func (e *env) buildState() (time.Duration, map[string]float64, error) {
	if err := os.Remove(e.statePath); err != nil && !os.IsNotExist(err) {
		return 0, nil, err
	}
	args := append(e.corpusArgs(), "-state-format", "v5", "-v", "build")
	cmd := exec.Command(e.ps.bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	out, err := cmd.Output()
	wall := time.Since(t0)
	if err != nil {
		return 0, nil, fmt.Errorf("ctxsearch build: %v\n%s", err, stderr.Bytes())
	}
	return wall, parseBuildStages(string(out)), nil
}

// parseBuildStages reads the buildstats summary ("  analyze   832.217ms
// 1000 papers ...") into seconds per stage name.
func parseBuildStages(out string) map[string]float64 {
	stages := map[string]float64{}
	_, table, found := strings.Cut(out, "offline build stages:\n")
	if !found {
		return stages
	}
	for _, line := range strings.Split(table, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		if d, err := time.ParseDuration(f[1]); err == nil {
			stages[f[0]] = d.Seconds()
		}
	}
	return stages
}

// deployment is one booted serving shape: the front door the clients talk
// to and the processes whose CPU and memory count as the server's.
type deployment struct {
	front string
	procs []*proc
	// shard is the base URL of shard 0 (cluster_page only), for the direct
	// POST /shard/search probe.
	shard string
}

func (d *deployment) pids() []int {
	pids := make([]int, len(d.procs))
	for i, p := range d.procs {
		pids[i] = p.cmd.Process.Pid
	}
	return pids
}

const bootTimeout = 60 * time.Second

// serveOne boots one `serve` process on the mapped state and waits for its
// /readyz. All flags are the binary's defaults except the cache size where
// the workload turns the cache off.
func (e *env) serveOne(name string, cacheOff bool) (*deployment, error) {
	args := append(e.corpusArgs(), "-addr", "127.0.0.1:0")
	if cacheOff {
		args = append(args, "-cache-entries", "0")
	}
	p, err := e.ps.spawn(name, append(args, "serve")...)
	if err != nil {
		return nil, err
	}
	addr, err := p.listenAddr(bootTimeout)
	if err != nil {
		return nil, err
	}
	d := &deployment{front: "http://" + addr, procs: []*proc{p}}
	return d, p.waitReady(e.client, d.front, bootTimeout)
}

// serveCluster boots two shard processes on the same state file and a
// coordinator (cache off) over them.
func (e *env) serveCluster() (*deployment, error) {
	d := &deployment{}
	var urls []string
	for i := 0; i < 2; i++ {
		args := append(e.corpusArgs(), "-addr", "127.0.0.1:0",
			"-shard-index", strconv.Itoa(i), "-shard-count", "2", "shard")
		p, err := e.ps.spawn(fmt.Sprintf("shard%d", i), args...)
		if err != nil {
			return nil, err
		}
		d.procs = append(d.procs, p)
	}
	for _, p := range d.procs {
		addr, err := p.listenAddr(bootTimeout)
		if err != nil {
			return nil, err
		}
		urls = append(urls, "http://"+addr)
	}
	d.shard = urls[0]
	coord, err := e.ps.spawn("coordinator",
		"-addr", "127.0.0.1:0", "-cache-entries", "0", "-shard-urls", strings.Join(urls, ","), "serve")
	if err != nil {
		return nil, err
	}
	d.procs = append(d.procs, coord)
	addr, err := coord.listenAddr(bootTimeout)
	if err != nil {
		return nil, err
	}
	d.front = "http://" + addr
	// The coordinator's /readyz aggregates the shards' own readiness.
	return d, coord.waitReady(e.client, d.front, bootTimeout)
}

// boot starts the serving shape of an HTTP workload and returns the time
// from the first spawn to the front door's /readyz answering 200.
func (e *env) boot(workload string) (*deployment, time.Duration, error) {
	t0 := time.Now()
	var d *deployment
	var err error
	switch workload {
	case "first_page", "boolean_page":
		d, err = e.serveOne("serve", true)
	case "hot_cache":
		d, err = e.serveOne("serve", false)
	case "cluster_page":
		d, err = e.serveCluster()
	default:
		err = fmt.Errorf("workload %q has no serving shape", workload)
	}
	return d, time.Since(t0), err
}

// fetchStats reads a front door's /stats.
func (e *env) fetchStats(base string) (server.StatsResponse, error) {
	var st server.StatsResponse
	resp, err := e.client.Get(base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /stats: %d %s", resp.StatusCode, body)
	}
	return st, json.Unmarshal(body, &st)
}

// findRoot checks that the working directory is the root of the ctxsearch
// module: the benchmark builds the program from the sources around it.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	mod, err := os.ReadFile(filepath.Join(wd, "go.mod"))
	if err != nil || !bytes.HasPrefix(mod, []byte("module ctxsearch\n")) {
		return "", fmt.Errorf("run from the root of the ctxsearch module (no go.mod of module ctxsearch in %s)", wd)
	}
	if _, err := os.Stat(filepath.Join(wd, "cmd", "ctxsearch", "main.go")); err != nil {
		return "", fmt.Errorf("no program to build: %v", err)
	}
	return wd, nil
}
