package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
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

// TestStateFormatFlag: -state-format still parses (deployment scripts pass
// it) but names the one format.
func TestStateFormatFlag(t *testing.T) {
	var buf bytes.Buffer
	for _, f := range []string{"v3", "v4", "gob", ""} {
		err := run([]string{"-papers", "150", "-terms", "40", "-state-format", f, "stats"}, &buf)
		if err == nil || !strings.Contains(err.Error(), "v5 is the only state format") {
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

// TestServeCommandBuildFailure: a serve whose engine build fails must shut
// the (already listening) server down and surface the build error.
func TestServeCommandBuildFailure(t *testing.T) {
	var out syncBuffer
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := runCtx(ctx, []string{"-papers", "120", "-terms", "40",
		"-set", "bogus", "-addr", "127.0.0.1:0", "serve"}, &out)
	if err == nil {
		t.Fatalf("bogus context set must fail serve:\n%s", out.String())
	}
	if !strings.Contains(fmt.Sprint(err), "bogus") {
		t.Fatalf("error does not mention the bad flag: %v", err)
	}
}

// stateSection is one section of a state file: its ID, element kind and
// payload.
type stateSection struct {
	id, kind uint32
	data     []byte
}

// rewriteState reads a state file's sections in table order, passes them to
// edit, and writes the file again from the list edit returns, laid out as
// the writer does: each section 64-byte aligned in list order, with fresh
// CRC32-C sums and table CRC.
func rewriteState(t *testing.T, path string, edit func([]stateSection) []stateSection) {
	t.Helper()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	secs := make([]stateSection, binary.LittleEndian.Uint32(img[12:]))
	for i := range secs {
		e := img[24+32*i:]
		off, n := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		secs[i] = stateSection{binary.LittleEndian.Uint32(e), binary.LittleEndian.Uint32(e[4:]), img[off : off+n]}
	}
	secs = edit(secs)
	crc := func(b []byte) uint32 { return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)) }
	tend := 24 + 32*len(secs)
	out := append(append([]byte(nil), img[:24]...), make([]byte, tend-24)...)
	binary.LittleEndian.PutUint32(out[12:], uint32(len(secs)))
	for i, s := range secs {
		out = append(out, make([]byte, (len(out)+63)&^63-len(out))...)
		e := out[24+32*i:]
		binary.LittleEndian.PutUint32(e, s.id)
		binary.LittleEndian.PutUint32(e[4:], s.kind)
		binary.LittleEndian.PutUint64(e[8:], uint64(len(out)))
		binary.LittleEndian.PutUint64(e[16:], uint64(len(s.data)))
		binary.LittleEndian.PutUint32(e[24:], crc(s.data))
		out = append(out, s.data...)
	}
	binary.LittleEndian.PutUint32(out[16:], crc(out[24:tend]))
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// widenPaperIDs rewrites a state file with its paper-ID sections, 4 and 10,
// as int64 (element kind 2): the layout of files written while paper IDs
// were 8 bytes wide.
func widenPaperIDs(t *testing.T, path string) {
	rewriteState(t, path, func(secs []stateSection) []stateSection {
		for i, s := range secs {
			if s.id == 4 || s.id == 10 {
				var wide []byte
				for k := 0; k < len(s.data); k += 4 {
					wide = binary.LittleEndian.AppendUint64(wide, uint64(int64(int32(binary.LittleEndian.Uint32(s.data[k:])))))
				}
				secs[i] = stateSection{s.id, 2, wide}
			}
		}
		return secs
	})
}

// matrixRows rewrites a built state file's one matrix (section base 100) as
// files were written while a matrix kept its own rows: its score column
// (103) compacted to the scored rows, with the rows' offsets (101) and a
// copy of their paper IDs (102) before it. The scored contexts (100) are
// references into the term dictionary, as the context set's are (in
// section 1, after its kind and count), and section 3 delimits each set
// context's members in section 4.
func matrixRows(t *testing.T, path string) {
	rewriteState(t, path, func(secs []stateSection) []stateSection {
		by := map[uint32][]byte{}
		for _, s := range secs {
			by[s.id] = s.data
		}
		u32s := func(b []byte) []uint32 {
			out := make([]uint32, len(b)/4)
			for i := range out {
				out[i] = binary.LittleEndian.Uint32(b[4*i:])
			}
			return out
		}
		meta := by[1]
		row := map[uint32]int{}
		for i, r := range u32s(meta[8 : 8+4*binary.LittleEndian.Uint32(meta[4:])]) {
			row[r] = i
		}
		offs := u32s(by[3])
		rowOffs := binary.LittleEndian.AppendUint32(nil, 0)
		var docs, vals []byte
		for _, r := range u32s(by[100]) {
			lo, hi := offs[row[r]], offs[row[r]+1]
			docs, vals = append(docs, by[4][4*lo:4*hi]...), append(vals, by[103][8*lo:8*hi]...)
			rowOffs = binary.LittleEndian.AppendUint32(rowOffs, uint32(len(docs)/4))
		}
		var out []stateSection
		for _, s := range secs {
			if s.id == 103 {
				out = append(out, stateSection{101, 1, rowOffs}, stateSection{102, 1, docs})
				s.data = vals
			}
			out = append(out, s)
		}
		return out
	})
}

// weightColumn rewrites a state file's posting term frequencies (section
// 21, uint16) as the float64 TF-IDF weights (section 11, element kind 3) in
// their place: the layout of files written while a posting carried its
// weight. Each weight is (1 + ln tf)·log(1 + N/df), from the DF table
// (section 15: the document count N, the term count, then each term's
// length-prefixed string and df) and the run offsets (section 9).
func weightColumn(t *testing.T, path string) {
	rewriteState(t, path, func(secs []stateSection) []stateSection {
		by := map[uint32][]byte{}
		for _, s := range secs {
			by[s.id] = s.data
		}
		df := by[15]
		docs := float64(binary.LittleEndian.Uint64(df))
		idf := make([]float64, binary.LittleEndian.Uint32(df[8:]))
		at := 12
		for i := range idf {
			at += 4 + int(binary.LittleEndian.Uint32(df[at:]))
			idf[i] = math.Log(1 + docs/float64(binary.LittleEndian.Uint32(df[at:])))
			at += 4
		}
		offs := by[9]
		for i, s := range secs {
			if s.id != 21 {
				continue
			}
			var w []byte
			for term := range idf {
				lo, hi := binary.LittleEndian.Uint32(offs[4*term:]), binary.LittleEndian.Uint32(offs[4*term+4:])
				for k := lo; k < hi; k++ {
					tf := float64(binary.LittleEndian.Uint16(s.data[2*k:]))
					w = binary.LittleEndian.AppendUint64(w, math.Float64bits((1+math.Log(tf))*idf[term]))
				}
			}
			secs[i] = stateSection{11, 3, w}
		}
		return secs
	})
}

// formerStateSHA256 is the SHA-256 of the state file `-papers 800 -terms
// 160 build` wrote while its postings carried float64 weights.
const formerStateSHA256 = "45ce6446638a2f7a5e5fce75260645b9ed709f6c577a3bbb90c2c837b5210577"

// TestWeightColumnIsFormerFile: the TF column holds exactly what the weight
// column held — the 800-paper state file, its term frequencies rewritten as
// weights (weightColumn), is the file the weight-column writer wrote, byte
// for byte.
func TestWeightColumnIsFormerFile(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("float bits are pinned on amd64 only: other targets may fuse multiply-adds")
	}
	path := filepath.Join(t.TempDir(), "state.bin")
	var buf bytes.Buffer
	if err := run([]string{"-papers", "800", "-terms", "160", "-state", path, "build"}, &buf); err != nil {
		t.Fatal(err)
	}
	weightColumn(t, path)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(img); hex.EncodeToString(sum[:]) != formerStateSHA256 {
		t.Fatalf("rewritten state file (%d bytes) has SHA-256 %x, want %s", len(img), sum, formerStateSHA256)
	}
}

// requireServeRefuses boots serve with args and requires it to exit with
// an error containing every want, and /readyz never to answer 200 meanwhile.
func requireServeRefuses(t *testing.T, args []string, want ...string) {
	t.Helper()
	out := &syncBuffer{}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- runCtx(ctx, append(args, "-addr", "127.0.0.1:0", "serve"), out) }()
	listenRE := regexp.MustCompile(`listening on (\S+)`)
	for {
		select {
		case err := <-done:
			for _, w := range want {
				if err == nil || !strings.Contains(err.Error(), w) {
					t.Fatalf("serve: err = %v, want one naming %q\n%s", err, w, out.String())
				}
			}
			return
		default:
		}
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			if resp, err := http.Get("http://" + m[1] + "/readyz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == 200 {
					t.Fatalf("serve answered /readyz 200:\n%s", out.String())
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

// TestServeRefusesInt64PaperIDs: serve booted on a state file whose paper
// IDs are 8 bytes wide exits with the section-kind error that names the
// rebuild, and /readyz never answers 200 meanwhile.
func TestServeRefusesInt64PaperIDs(t *testing.T) {
	args := builtState(t)
	widenPaperIDs(t, args[len(args)-1])
	requireServeRefuses(t, args, "holds int64 elements, this binary reads int32", "ctxsearch build -state")
}

// TestServeRefusesMatrixRows: serve booted on a state file whose matrix
// keeps its own rows exits with the error that names the retired sections
// and the rebuild, and /readyz never answers 200 meanwhile.
func TestServeRefusesMatrixRows(t *testing.T) {
	args := builtState(t)
	matrixRows(t, args[len(args)-1])
	requireServeRefuses(t, args, "sections 101 and 102", "ctxsearch build -state")
}

// TestServeRefusesWeightColumn: serve booted on a state file whose postings
// carry float64 weights exits with the error that names section 11, the
// layout change and the rebuild, and /readyz never answers 200 meanwhile.
func TestServeRefusesWeightColumn(t *testing.T) {
	args := builtState(t)
	weightColumn(t, args[len(args)-1])
	requireServeRefuses(t, args, "section 11", "term frequency (section 21)", "ctxsearch build -state")
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
