package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ctxsearch"
	"ctxsearch/internal/index"
	"ctxsearch/internal/shard"
	"ctxsearch/internal/store"
)

var (
	cachedMappedSys  *ctxsearch.System
	cachedMappedCS   *ctxsearch.ContextSet
	cachedMappedMat  *ctxsearch.Matrix
	cachedMappedRef  *store.Mapped
	cachedMappedPrts *index.Parts
)

// mappedState saves the shared fixture as a state file, opens it
// (zero-copy where the platform allows), and binds a frozen system directly
// to the mapped arrays — the exact cold-start path `serve` takes. Cached
// once; the mapping is deliberately never closed (it backs every test).
func mappedState(t *testing.T) (*ctxsearch.System, *ctxsearch.ContextSet, *ctxsearch.Matrix, *index.Parts, *store.Mapped) {
	t.Helper()
	sys, cs, m, _ := frozenMatrix(t)
	if cachedMappedSys == nil {
		st := &store.State{
			ContextSet: cs,
			Matrices:   map[string]*ctxsearch.Matrix{"text": m},
			Index:      sys.Index().Parts(),
			DF:         sys.Analyzer().DF(),
		}
		path := filepath.Join(t.TempDir(), "state.bin")
		if err := store.SaveFile(path, st); err != nil {
			t.Fatal(err)
		}
		mapped, err := store.Open(path, sys.Ontology)
		if err != nil {
			t.Fatal(err)
		}
		mcs, err := mapped.ContextSet()
		if err != nil {
			t.Fatal(err)
		}
		mmat, err := mapped.Matrix("text")
		if err != nil {
			t.Fatal(err)
		}
		parts, err := mapped.IndexParts()
		if err != nil {
			t.Fatal(err)
		}
		df, err := mapped.DF()
		if err != nil {
			t.Fatal(err)
		}
		fsys, err := ctxsearch.NewFrozenSystem(sys.Ontology, sys.Corpus, parts, df, sys.Config())
		if err != nil {
			t.Fatal(err)
		}
		cachedMappedSys, cachedMappedCS, cachedMappedMat = fsys, mcs, mmat
		cachedMappedRef, cachedMappedPrts = mapped, parts
	}
	return cachedMappedSys, cachedMappedCS, cachedMappedMat, cachedMappedPrts, cachedMappedRef
}

// mappedParams mirrors the coordinator golden battery's randomized paging,
// threshold and boolean shapes.
func mappedParams(q string, rng *rand.Rand) string {
	params := "q=" + urlQuery(q) + fmt.Sprintf("&limit=%d", 1+rng.Intn(20))
	if rng.Intn(2) == 0 {
		params += fmt.Sprintf("&offset=%d", rng.Intn(15))
	}
	if rng.Intn(3) == 0 {
		params += fmt.Sprintf("&threshold=%.2f", rng.Float64()*0.4)
	}
	if rng.Intn(3) == 0 {
		params += "&boolean=1"
	}
	return params
}

// TestMappedGoldenEquality is the tentpole's HTTP contract: a server whose
// engine reads straight out of the mapped arrays answers every endpoint
// byte-identically to one over the in-process build.
func TestMappedGoldenEquality(t *testing.T) {
	sys, cs, m, _ := frozenMatrix(t)
	fsys, mcs, mmat, _, mapped := mappedState(t)

	ref := NewPending(Config{})
	ref.install(sys, cs, m)
	mappedSrv := NewPending(Config{})
	mappedSrv.SetReadyMapped(fsys, mcs, mmat, fsys.Engine(mmat), mapped)

	rng := rand.New(rand.NewSource(23))
	for qi, q := range coordQueries(t) {
		for trial := 0; trial < 6; trial++ {
			params := mappedParams(q, rng)
			want := get(t, ref, "/search?"+params)
			got := get(t, mappedSrv, "/search?"+params)
			label := fmt.Sprintf("query %d %q trial %d params %s", qi, q, trial, params)
			if got.Code != want.Code {
				t.Fatalf("%s: mapped %d, built %d\n%s", label, got.Code, want.Code, got.Body)
			}
			if got.Body.String() != want.Body.String() {
				t.Fatalf("%s: bodies differ\nmapped: %s\nbuilt:  %s", label, got.Body, want.Body)
			}
		}
	}
	_, _, _, query := frozenMatrix(t)
	for _, path := range []string{
		"/papers/0", "/papers/5", "/papers/999999", "/papers/xyz",
		"/contexts?q=" + urlQuery(query), "/contexts",
	} {
		want := get(t, ref, path)
		got := get(t, mappedSrv, path)
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Fatalf("%s: mapped (%d) %s\nbuilt (%d) %s", path, got.Code, got.Body, want.Code, want.Body)
		}
	}
}

// TestMappedCoordinatorGolden: a multi-process deployment where every shard
// process opened the same mapping (RangeEngineParts) answers through the
// coordinator byte-identically to the single server over the in-process
// build.
func TestMappedCoordinatorGolden(t *testing.T) {
	sys, cs, m, query := frozenMatrix(t)
	fsys, mcs, mmat, parts, mapped := mappedState(t)
	ref := NewPending(Config{})
	ref.install(sys, cs, m)

	const n = 3
	var urls []string
	for i := 0; i < n; i++ {
		eng, _, err := shard.RangeEngineParts(fsys.Analyzer(), parts, mmat, fsys.Config().Relevancy, i, n)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewPending(Config{})
		srv.SetReadyMapped(fsys, mcs, mmat, eng, mapped)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	coord := NewCoordinator(urls, Config{}, ShardConfig{})
	t.Cleanup(coord.Close)

	rng := rand.New(rand.NewSource(31))
	for qi, q := range coordQueries(t) {
		for trial := 0; trial < 3; trial++ {
			params := mappedParams(q, rng)
			want := get(t, ref, "/search?"+params)
			got := coordGet(t, coord, "/search?"+params)
			label := fmt.Sprintf("query %d %q trial %d params %s", qi, q, trial, params)
			if got.Code != want.Code || got.Body.String() != want.Body.String() {
				t.Fatalf("%s: coordinator-over-mapped (%d) %s\nbuilt (%d) %s", label, got.Code, got.Body, want.Code, want.Body)
			}
		}
	}
	for _, path := range []string{"/papers/0", "/papers/999999", "/contexts?q=" + urlQuery(query)} {
		want := get(t, ref, path)
		got := coordGet(t, coord, path)
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Fatalf("%s: coordinator-over-mapped (%d) %s\nbuilt (%d) %s", path, got.Code, got.Body, want.Code, want.Body)
		}
	}
}

// TestMappedStats: /stats reports the mapped-state flag and the recorded
// cold-start duration; a plain frozen server reports neither.
func TestMappedStats(t *testing.T) {
	sys, cs, m, _ := frozenMatrix(t)
	fsys, mcs, mmat, _, mapped := mappedState(t)

	srv := NewPending(Config{})
	srv.SetReadyMapped(fsys, mcs, mmat, fsys.Engine(mmat), mapped)
	srv.SetColdStart(250 * time.Millisecond)
	var st StatsResponse
	if err := json.Unmarshal(get(t, srv, "/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.MappedState {
		t.Fatal("mapped server does not report mapped_state")
	}
	if st.ColdStartMS != 250 {
		t.Fatalf("cold_start_ms = %v, want 250", st.ColdStartMS)
	}

	plain := NewPending(Config{})
	plain.install(sys, cs, m)
	var pst StatsResponse
	if err := json.Unmarshal(get(t, plain, "/stats").Body.Bytes(), &pst); err != nil {
		t.Fatal(err)
	}
	if pst.MappedState || pst.ColdStartMS != 0 {
		t.Fatalf("frozen server reports mapped_state=%v cold_start_ms=%v", pst.MappedState, pst.ColdStartMS)
	}
}

// openMappedSystem opens its own mapping of a state file and binds a frozen
// system to it — an independent replica generation for the swap test.
func openMappedSystem(t *testing.T, path string, onto *ctxsearch.Ontology, c *ctxsearch.Corpus, cfg ctxsearch.Config) (*ctxsearch.System, *ctxsearch.ContextSet, *ctxsearch.Matrix, *store.Mapped) {
	t.Helper()
	mapped, err := store.Open(path, onto)
	if err != nil {
		t.Fatal(err)
	}
	mcs, err := mapped.ContextSet()
	if err != nil {
		t.Fatal(err)
	}
	mmat, err := mapped.Matrix("text")
	if err != nil {
		t.Fatal(err)
	}
	parts, err := mapped.IndexParts()
	if err != nil {
		t.Fatal(err)
	}
	df, err := mapped.DF()
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := ctxsearch.NewFrozenSystem(onto, c, parts, df, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fsys, mcs, mmat, mapped
}

// TestMappedSwapUnderLoad drives concurrent queries through a server while a
// new mapping generation is swapped in (open-new, swap, close-old). Every
// request must answer 200 from a coherent generation; the old mapping must
// end up fully released (its pages can be unmapped) once in-flight requests
// drain. Run under -race this pins the munmap-vs-reader ordering.
func TestMappedSwapUnderLoad(t *testing.T) {
	sys, cs, m, query := frozenMatrix(t)
	st := &store.State{
		ContextSet: cs,
		Matrices:   map[string]*ctxsearch.Matrix{"text": m},
		Index:      sys.Index().Parts(),
		DF:         sys.Analyzer().DF(),
	}
	path := filepath.Join(t.TempDir(), "swap.bin")
	if err := store.SaveFile(path, st); err != nil {
		t.Fatal(err)
	}

	sysA, csA, mA, mappedA := openMappedSystem(t, path, sys.Ontology, sys.Corpus, sys.Config())
	srv := NewPending(Config{})
	srv.SetReadyMapped(sysA, csA, mA, sysA.Engine(mA), mappedA)

	paths := []string{
		"/search?q=" + urlQuery(query) + "&limit=10",
		"/search?q=" + urlQuery(query) + "&limit=5&offset=2",
		"/papers/0",
		"/contexts?q=" + urlQuery(query),
		"/stats",
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := paths[(w+i)%len(paths)]
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("GET", p, nil))
				if rec.Code != 200 {
					select {
					case errc <- fmt.Errorf("%s = %d during swap: %s", p, rec.Code, rec.Body):
					default:
					}
					return
				}
			}
		}(w)
	}

	// Swap three generations in while the load runs; SetReadyMapped closes
	// the previous generation's mapping each time.
	last := mappedA
	for gen := 0; gen < 3; gen++ {
		time.Sleep(20 * time.Millisecond)
		sysB, csB, mB, mappedB := openMappedSystem(t, path, sys.Ontology, sys.Corpus, sys.Config())
		srv.SetReadyMapped(sysB, csB, mB, sysB.Engine(mB), mappedB)
		last = mappedB
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// The retired generation is fully released: a new reader cannot pin it.
	if mappedA.Retain() {
		t.Fatal("swapped-out mapping still retainable after drain")
	}
	// The live generation still serves.
	rec := get(t, srv, paths[0])
	if rec.Code != 200 {
		t.Fatalf("post-swap search = %d: %s", rec.Code, rec.Body)
	}
	if !last.Retain() {
		t.Fatal("live mapping not retainable")
	}
	last.Release()
	// Server shutdown closes the final generation.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if last.Retain() {
		t.Fatal("mapping retainable after server close")
	}
}
