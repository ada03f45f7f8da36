package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	base := []string{"-papers", "150", "-terms", "40"}
	if err := run(append(base, args...), &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

func TestStatsCommand(t *testing.T) {
	out := runCLI(t, "stats")
	for _, want := range []string{"ontology:", "corpus:", "context set"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}
}

func TestSearchCommand(t *testing.T) {
	out := runCLI(t, "search", "regulation", "of", "transcription")
	if !strings.Contains(out, "results for") && !strings.Contains(out, "no results") {
		t.Fatalf("unexpected search output:\n%s", out)
	}
}

func TestContextsCommand(t *testing.T) {
	out := runCLI(t, "contexts", "transcription")
	if !strings.Contains(out, "contexts") {
		t.Fatalf("unexpected contexts output:\n%s", out)
	}
}

func TestInspectCommand(t *testing.T) {
	out := runCLI(t, "inspect", "0")
	for _, want := range []string{"paper 0", "title:", "authors:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("inspect output missing %q:\n%s", want, out)
		}
	}
}

func TestInspectErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-papers", "150", "-terms", "40", "inspect", "badid"}, &buf); err == nil {
		t.Fatal("bad paper id must fail")
	}
	if err := run([]string{"-papers", "150", "-terms", "40", "inspect", "999999"}, &buf); err == nil {
		t.Fatal("out-of-range paper must fail")
	}
}

// TestUnknownCommand: a mistyped command is rejected by name before
// anything is built — in particular before -state is written.
func TestUnknownCommand(t *testing.T) {
	var buf bytes.Buffer
	state := filepath.Join(t.TempDir(), "x.state")
	err := run([]string{"-papers", "150", "-terms", "40", "-state", state, "frobnicate"}, &buf)
	if err == nil || !strings.Contains(err.Error(), `"frobnicate"`) {
		t.Fatalf("unknown command: err = %v, want one naming the command", err)
	}
	if _, serr := os.Stat(state); !errors.Is(serr, fs.ErrNotExist) {
		t.Fatalf("unknown command left a state file behind (stat: %v)", serr)
	}
}

// TestMisplacedShardFlags: a shard flag on the command that would drop it is
// an error naming the right command, raised before anything is bound, built
// or written — not a server over the wrong papers.
func TestMisplacedShardFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-shard-index", "1", "-shard-count", "3", "serve"}, "shard command"},
		{[]string{"-shard-count", "3", "serve"}, "shard command"},
		{[]string{"-shard-urls", "http://127.0.0.1:1", "-shard-index", "0", "-shard-count", "2", "shard"}, "serve command"},
	} {
		state := filepath.Join(t.TempDir(), "x.state")
		// The deadline only ends a process that wrongly came up serving.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		var out syncBuffer
		err := runCtx(ctx, append([]string{"-papers", "120", "-terms", "40", "-state", state, "-addr", "127.0.0.1:0"}, tc.args...), &out)
		cancel()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%v: err = %v, want one naming the %s\n%s", tc.args, err, tc.want, out.String())
		}
		if _, serr := os.Stat(state); !errors.Is(serr, fs.ErrNotExist) {
			t.Fatalf("%v left a state file behind (stat: %v)", tc.args, serr)
		}
	}
}

func TestBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-set", "bogus", "-papers", "150", "-terms", "40", "stats"}, &buf); err == nil {
		t.Fatal("bogus context set must fail")
	}
	if err := run([]string{"-score", "bogus", "-papers", "150", "-terms", "40", "stats"}, &buf); err == nil {
		t.Fatal("bogus score function must fail")
	}
}

func TestGenerateAndReload(t *testing.T) {
	dir := t.TempDir()
	corpusPath := filepath.Join(dir, "c.gob")
	oboPath := filepath.Join(dir, "o.obo")
	out := runCLI(t, "-corpus", corpusPath, "-obo", oboPath, "generate")
	if !strings.Contains(out, "generated 150 papers") {
		t.Fatalf("generate output:\n%s", out)
	}
	// Reload from the saved files.
	out = runCLI(t, "-corpus", corpusPath, "-obo", oboPath, "stats")
	if !strings.Contains(out, "corpus:   150 papers") {
		t.Fatalf("reloaded stats:\n%s", out)
	}
}

// TestStateRoundTrip: every command that reads the state prints the same
// bytes from the in-process build and from the reopened state file (mapped,
// frozen analyzer), under both mmap and the byte-copy fallback — and the
// reopened run analyses no paper before answering.
func TestStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "state.bin")
	data := []string{"-corpus", filepath.Join(dir, "c.gob"), "-obo", filepath.Join(dir, "o.obo")}
	with := func(args ...string) []string { return append(append([]string(nil), data...), args...) }
	runCLI(t, with("generate")...)
	commands := [][]string{
		{"search", "regulation", "of", "transcription"},
		{"-boolean", "search", "transcription", "AND", "NOT", "corrosion"},
		{"contexts", "transcription"},
		{"inspect", "5"},
		{"stats"},
		{"cluster", "regulation", "transcription"},
	}
	built := make([]string, len(commands))
	for i, cmd := range commands {
		built[i] = runCLI(t, with(cmd...)...)
	}
	if !strings.Contains(built[0], "results for") {
		t.Fatalf("the search case matches nothing, so it compares nothing:\n%s", built[0])
	}
	if out := runCLI(t, with("-state", statePath, "build")...); !strings.Contains(out, "state saved to") {
		t.Fatalf("build output:\n%s", out)
	}
	for _, noMmap := range []string{"", "1"} {
		t.Setenv("CTXSEARCH_NO_MMAP", noMmap)
		for i, cmd := range commands {
			got := runCLI(t, with(append([]string{"-state", statePath}, cmd...)...)...)
			if got != built[i] {
				t.Fatalf("CTXSEARCH_NO_MMAP=%q %v: reopened state prints\n%s\nin-process build printed\n%s", noMmap, cmd, got, built[i])
			}
		}
		verbose := runCLI(t, with("-state", statePath, "-v", "search", "transcription")...)
		if !strings.Contains(verbose, "\n  state-map") || strings.Contains(verbose, "\n  analyze") {
			t.Fatalf("CTXSEARCH_NO_MMAP=%q: a state-booted search still analyses the corpus:\n%s", noMmap, verbose)
		}
		// The boot's summary lists producing its inputs first: loaded from
		// the files here, regenerated without them.
		if !strings.Contains(verbose, "stages:\n  load") {
			t.Fatalf("CTXSEARCH_NO_MMAP=%q: a state-booted search does not time loading its inputs:\n%s", noMmap, verbose)
		}
		verbose = runCLI(t, "-state", statePath, "-v", "search", "transcription")
		if !strings.Contains(verbose, "\n  generate") {
			t.Fatalf("CTXSEARCH_NO_MMAP=%q: a state-booted search does not time regenerating its inputs:\n%s", noMmap, verbose)
		}
	}
	// Requesting a function the state lacks must fail, naming what it has.
	var buf bytes.Buffer
	err := run(with("-state", statePath, "-score", "citation", "-papers", "150", "-terms", "40", "stats"), &buf)
	if err == nil || !strings.Contains(err.Error(), "[text]") {
		t.Fatalf("missing score function in state: %v", err)
	}
	// A -state path that cannot be examined is an error, not a rebuild that
	// then overwrites it (statePath is a file, so nothing can be below it).
	err = run(with("-state", filepath.Join(statePath, "s.bin"), "-papers", "150", "-terms", "40", "stats"), &buf)
	if err == nil || strings.Contains(err.Error(), "saving") {
		t.Fatalf("unreadable -state path: %v", err)
	}
}

// TestStateFormatFlag: -state-format still parses (bench/deploy.go passes
// it) and accepts only v5, naming version 8 as the format.
func TestStateFormatFlag(t *testing.T) {
	var buf bytes.Buffer
	for _, f := range []string{"v3", "v4", "gob", ""} {
		err := run([]string{"-papers", "150", "-terms", "40", "-state-format", f, "stats"}, &buf)
		if err == nil || !strings.Contains(err.Error(), "the state format is version 8, and v5 is the one spelling accepted") {
			t.Fatalf("-state-format %q: %v", f, err)
		}
	}
	runCLI(t, "-state-format", "v5", "stats")
}

func TestSimAndRelatedCommands(t *testing.T) {
	// Find two term IDs via stats being deterministic: GO:0000004 and
	// GO:0000005 exist in a 40-term ontology.
	out := runCLI(t, "sim", "GO:0000004", "GO:0000005")
	for _, want := range []string{"Resnik", "Lin"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sim output missing %q:\n%s", want, out)
		}
	}
	out = runCLI(t, "-limit", "5", "related", "GO:0000004")
	if !strings.Contains(out, "terms related to") {
		t.Fatalf("related output:\n%s", out)
	}
	var buf bytes.Buffer
	if err := run([]string{"-papers", "150", "-terms", "40", "sim", "GO:0000004", "GO:9999999"}, &buf); err == nil {
		t.Fatal("unknown term must fail")
	}
}

func TestStatsRicherOutput(t *testing.T) {
	out := runCLI(t, "stats")
	for _, want := range []string{"tokens:", "citations:", "evidence:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats missing %q:\n%s", want, out)
		}
	}
}

func TestClusterCommand(t *testing.T) {
	out := runCLI(t, "cluster", "regulation", "transcription")
	if !strings.Contains(out, "cluster") {
		t.Fatalf("cluster output:\n%s", out)
	}
}

func TestExportCommand(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "papers.jsonl")
	out := runCLI(t, "export", "jsonl", jsonl)
	if !strings.Contains(out, "wrote jsonl export") {
		t.Fatalf("export output:\n%s", out)
	}
	data, err := os.ReadFile(jsonl)
	if err != nil || len(data) == 0 {
		t.Fatalf("export file: %v", err)
	}
	gaf := filepath.Join(dir, "annots.gaf")
	runCLI(t, "export", "gaf", gaf)
	var buf bytes.Buffer
	if err := run([]string{"-papers", "150", "-terms", "40", "export", "bogus", gaf}, &buf); err == nil {
		t.Fatal("unknown export format must fail")
	}
}

// TestExportUnknownFormatKeepsTarget: an unknown export format is refused
// naming it, before the path is opened, so an earlier export there keeps
// its bytes.
func TestExportUnknownFormatKeepsTarget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	runCLI(t, "export", "jsonl", path)
	before, err := os.ReadFile(path)
	if err != nil || len(before) == 0 {
		t.Fatalf("export jsonl wrote %d bytes: %v", len(before), err)
	}
	var buf bytes.Buffer
	err = run([]string{"-papers", "150", "-terms", "40", "export", "bogus", path}, &buf)
	if err == nil || !strings.Contains(err.Error(), `unknown format "bogus"`) {
		t.Fatalf("export bogus: err = %v, want one naming the format", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("export bogus left %d bytes of the earlier %d-byte export (read: %v)", len(after), len(before), err)
	}
}

// syncBuffer guards the output writer: serveCmd writes "listening on" from
// the serving goroutine and "engine ready" from the build goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// bootServe runs a serve or shard command on an ephemeral port and waits for
// /readyz. stop cancels the context the way a SIGTERM would and expects a
// clean exit.
func bootServe(t *testing.T, args ...string) (base string, out *syncBuffer, stop func()) {
	t.Helper()
	out = &syncBuffer{}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done := make(chan error, 1)
	go func() {
		done <- runCtx(ctx, append([]string{"-papers", "120", "-terms", "40", "-addr", "127.0.0.1:0"}, args...), out)
	}()
	// The port binds before the engine build finishes; learn it from the log.
	listenRE := regexp.MustCompile(`listening on (\S+)`)
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("%v exited before listening: %v\n%s", args, err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("%v never started listening:\n%s", args, out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Liveness answers immediately; readiness flips once the engine lands.
	for ready := false; !ready; {
		if time.Now().After(deadline) {
			t.Fatalf("%v never became ready:\n%s", args, out.String())
		}
		if resp, err := http.Get(base + "/readyz"); err == nil {
			resp.Body.Close()
			ready = resp.StatusCode == 200
		}
		if !ready {
			time.Sleep(20 * time.Millisecond)
		}
	}
	return base, out, func() {
		t.Helper()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%v shutdown: %v", args, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("%v never exited after cancellation", args)
		}
	}
}

// TestServeCommand boots the real serve command on an ephemeral port,
// waits for readiness to flip, exercises the API over HTTP, and then
// cancels the context the way a SIGTERM would — expecting a clean exit.
func TestServeCommand(t *testing.T) {
	base, out, stop := bootServe(t, "serve")
	for _, path := range []string{"/healthz", "/readyz", "/search?q=transcription"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}
	stop()
	if !strings.Contains(out.String(), "engine ready") {
		t.Fatalf("missing engine-ready log:\n%s", out.String())
	}
}

// TestShardedServeWithoutState: with no state file, a shard process slices
// the postings of the index it just built; the flags of the removed
// one-process sharded mode are unknown.
func TestShardedServeWithoutState(t *testing.T) {
	args := []string{"-shard-index", "1", "-shard-count", "3", "shard"}
	base, out, stop := bootServe(t, args...)
	resp, err := http.Get(base + "/search?q=transcription")
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("%v: /search = %d", args, resp.StatusCode)
	}
	stop()
	if want := "shard 1/3 ready (papers 40-79)"; !strings.Contains(out.String(), want) {
		t.Fatalf("%v: missing %q:\n%s", args, want, out.String())
	}
	for _, name := range []string{"-shards", "-fanout"} {
		var buf bytes.Buffer
		err := run([]string{name, "3", "serve"}, &buf)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+name) {
			t.Fatalf("%s 3 serve: err = %v, want an unknown-flag error", name, err)
		}
	}
}

// TestServeCommandBuildFailure: a serve whose background load fails after
// the port bound — here a -corpus path holding a file that is not a corpus,
// which only loading it can tell — must shut the listening server down and
// surface the load error.
func TestServeCommandBuildFailure(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "corpus.gob")
	if err := os.WriteFile(bad, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out syncBuffer
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := runCtx(ctx, []string{"-papers", "120", "-terms", "40",
		"-corpus", bad, "-addr", "127.0.0.1:0", "serve"}, &out)
	if err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("a corpus file that is not a corpus must fail serve, naming it: err = %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "listening on") {
		t.Fatalf("the load failed before the port bound, so the post-listen path went untested:\n%s", out.String())
	}
}

// requireServeRefuses runs args, a serve or shard command, and requires it
// to exit with an error containing every want, and /readyz never to answer
// 200 meanwhile.
func requireServeRefuses(t *testing.T, args []string, want ...string) {
	t.Helper()
	out := &syncBuffer{}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- runCtx(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out) }()
	listenRE := regexp.MustCompile(`listening on (\S+)`)
	for {
		select {
		case err := <-done:
			for _, w := range want {
				if err == nil || !strings.Contains(err.Error(), w) {
					t.Fatalf("%v: err = %v, want one naming %q\n%s", args, err, w, out.String())
				}
			}
			return
		default:
		}
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			if resp, err := http.Get("http://" + m[1] + "/readyz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == 200 {
					t.Fatalf("%v answered /readyz 200:\n%s", args, out.String())
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// builtState builds a small state file and returns the flags that load it.
func builtState(t *testing.T) []string {
	t.Helper()
	args := []string{"-papers", "120", "-terms", "40", "-state", filepath.Join(t.TempDir(), "state.bin")}
	var buf bytes.Buffer
	if err := run(append(args, "build"), &buf); err != nil {
		t.Fatal(err)
	}
	return args
}

// TestServeRefusesV5: serve booted on an older state file — version 6, the
// last before the postings were grouped by term frequency, or version 7,
// the last whose context meta listed the representatives — exits with the
// version error that names the rebuild, and /readyz never answers 200
// meanwhile.
func TestServeRefusesV5(t *testing.T) {
	for _, ver := range []uint32{6, 7} {
		args := builtState(t)
		path := args[len(args)-1]
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(img[8:], ver)
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		requireServeRefuses(t, append(args, "serve"), fmt.Sprintf("version %d", ver), "ctxsearch build -state")
	}
}

// TestStateCorpusMismatch: a state built from the seed-1 corpus and booted
// with -seed 2 would answer with plausible rows of another corpus. Every
// command refuses it instead, naming both fingerprints — a one-shot search,
// serve, and a shard, whose /readyz never answers 200.
func TestStateCorpusMismatch(t *testing.T) {
	args := builtState(t)
	var buf bytes.Buffer
	err := run(append(args, "-seed", "2", "search", "transcription"), &buf)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") || strings.Count(err.Error(), "the ontology and corpus loaded here have") != 1 {
		t.Fatalf("seed-2 search over a seed-1 state: err = %v\n%s", err, buf.String())
	}
	if err := run(append(args, "search", "transcription"), &buf); err != nil {
		t.Fatalf("the state's own seed: %v", err)
	}
	for _, cmd := range [][]string{{"serve"}, {"-shard-index", "0", "-shard-count", "2", "shard"}} {
		requireServeRefuses(t, append(append(args, "-seed", "2"), cmd...), "fingerprint", "-seed")
	}
}

func TestBooleanSearchCommand(t *testing.T) {
	out := runCLI(t, "-boolean", "search", "transcription", "AND", "NOT", "corrosion")
	if !strings.Contains(out, "results for") && !strings.Contains(out, "no results") {
		t.Fatalf("boolean search output:\n%s", out)
	}
	var buf bytes.Buffer
	if err := run([]string{"-papers", "150", "-terms", "40", "-boolean", "search", "((("}, &buf); err == nil {
		t.Fatal("bad boolean query must fail")
	}
}

// TestFlagsAfterCommand: flags may follow the command. `build -state F`
// writes the very bytes `-state F build` does, and `search -limit 2 q`
// prints two rows for q.
func TestFlagsAfterCommand(t *testing.T) {
	dir := t.TempDir()
	after, before := filepath.Join(dir, "after.bin"), filepath.Join(dir, "before.bin")
	runCLI(t, "build", "-state", after)
	runCLI(t, "-state", before, "build")
	a, err := os.ReadFile(after)
	if err != nil {
		t.Fatalf("build -state F wrote no file: %v", err)
	}
	b, err := os.ReadFile(before)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("build -state F wrote %d bytes, -state F build %d, and they differ", len(a), len(b))
	}
	out := runCLI(t, "search", "-limit", "2", "transcription")
	if rows := regexp.MustCompile(`(?m)^ *\d+\. \[`).FindAllString(out, -1); len(rows) != 2 || !strings.Contains(out, `for "transcription"`) {
		t.Fatalf("search -limit 2 transcription printed %d rows:\n%s", len(rows), out)
	}
}

// TestArgumentsRefused: a command that takes no arguments refuses any,
// naming itself, before anything is built or written.
func TestArgumentsRefused(t *testing.T) {
	for _, cmd := range [][]string{{"build", "extra"}, {"stats", "extra", "args"}} {
		state := filepath.Join(t.TempDir(), "x.state")
		var buf bytes.Buffer
		err := run(append([]string{"-papers", "150", "-terms", "40", "-state", state}, cmd...), &buf)
		if err == nil || !strings.Contains(err.Error(), cmd[0]+" takes no arguments") {
			t.Fatalf("%v: err = %v, want one naming %s\n%s", cmd, err, cmd[0], buf.String())
		}
		if _, serr := os.Stat(state); !errors.Is(serr, fs.ErrNotExist) {
			t.Fatalf("%v left a state file behind (stat: %v)", cmd, serr)
		}
	}
}

// TestEverySetScorePairAnswers: every (-set, -score) pair validate accepts
// scores some contexts and answers a search, built in-process and booted
// from the state `build -state` wrote, with the same page both ways. The
// text function scores the pattern-based set with the representatives its
// terms' evidence defines, as §4 does.
func TestEverySetScorePairAnswers(t *testing.T) {
	scored := regexp.MustCompile(`scored contexts \(> \d+ papers\): (\d+)`)
	for _, set := range sortedNames(contextSets) {
		for _, score := range sortedNames(scoreFns) {
			flags := []string{"-papers", "120", "-terms", "40", "-set", set, "-score", score, "-limit", "5"}
			state := append(slices.Clone(flags), "-state", filepath.Join(t.TempDir(), "state.bin"))
			cli := func(args ...string) string {
				var buf bytes.Buffer
				if err := run(args, &buf); err != nil {
					t.Fatalf("-set %s -score %s: run(%v): %v", set, score, args, err)
				}
				return buf.String()
			}
			cli(append(slices.Clone(state), "build")...)
			var pages []string
			for _, args := range [][]string{flags, state} {
				m := scored.FindStringSubmatch(cli(append(slices.Clone(args), "stats")...))
				if m == nil || m[1] == "0" {
					t.Fatalf("-set %s -score %s: stats with %v printed %q, want a positive count of scored contexts", set, score, args, m)
				}
				page := cli(append(slices.Clone(args), "search", "transcription")...)
				if !strings.Contains(page, `results for "transcription"`) || strings.HasPrefix(page, "no results") {
					t.Fatalf("-set %s -score %s: search with %v printed an empty page:\n%s", set, score, args, page)
				}
				pages = append(pages, page)
			}
			if pages[0] != pages[1] {
				t.Fatalf("-set %s -score %s: the state-booted page differs from the built one:\n%s\nvs\n%s", set, score, pages[1], pages[0])
			}
		}
	}
}

// sortedNames returns the names a -set or -score table holds, sorted.
func sortedNames[F any](table map[string]F) []string {
	names := make([]string, 0, len(table))
	for name := range table {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// TestStateSetKind: a text-built state booted with another -set is refused
// before any output, naming both kinds, instead of serving the text set.
func TestStateSetKind(t *testing.T) {
	args := builtState(t)
	for set, want := range map[string][]string{
		"pattern": {"text-based", "pattern-based", "ctxsearch build -state"},
		"bogus":   {`unknown context set "bogus"`},
	} {
		var buf bytes.Buffer
		err := run(append(args, "-set", set, "stats"), &buf)
		for _, w := range want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Fatalf("-set %s over a text state: err = %v, want one naming %q", set, err, w)
			}
		}
		if buf.Len() != 0 {
			t.Fatalf("-set %s over a text state printed before refusing:\n%s", set, buf.String())
		}
	}
}

// stampVersion returns a spoiler that rewrites a state file's header
// version to ver.
func stampVersion(ver uint32) func(path string) error {
	return func(path string) error {
		img, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(img[8:], ver)
		return os.WriteFile(path, img, 0o644)
	}
}

// TestRefusalRebuildsVerbatim: every refusal that tells the user to run
// `ctxsearch build -state …` means it. Run verbatim after the refused
// command's other flags, it writes a state those flags boot.
func TestRefusalRebuildsVerbatim(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flags []string
		spoil func(path string) error // applied to a seed-1 text state
	}{
		{"fingerprint", []string{"-seed", "2"}, nil},
		{"set kind", []string{"-set", "pattern"}, nil},
		{"version 6", nil, stampVersion(6)},
		{"version 7", nil, stampVersion(7)},
		{"gob state", nil, func(path string) error {
			return os.WriteFile(path, []byte("\x20\xff\x81ctxsearch-state"), 0o644)
		}},
	} {
		args := builtState(t)
		path := args[len(args)-1]
		if tc.spoil != nil {
			if err := tc.spoil(path); err != nil {
				t.Fatal(err)
			}
		}
		flags := append([]string{"-papers", "120", "-terms", "40"}, tc.flags...)
		var buf bytes.Buffer
		err := run(append(append(flags, "-state", path), "stats"), &buf)
		if err == nil || !strings.Contains(err.Error(), "`ctxsearch build -state …`") {
			t.Fatalf("%s: err = %v, want a refusal naming `ctxsearch build -state …`", tc.name, err)
		}
		if err := run(append(flags, "build", "-state", path), &buf); err != nil {
			t.Fatalf("%s: the rebuild: %v", tc.name, err)
		}
		if err := run(append(append(flags, "-state", path), "stats"), &buf); err != nil {
			t.Fatalf("%s: the rebuilt state does not boot: %v", tc.name, err)
		}
	}
}
