package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ctxsearch"
	"ctxsearch/internal/store"
)

// savedState writes the shared fixture's state file with
// ctxsearch.SaveState into the test's temp dir and returns its path.
func savedState(t *testing.T) string {
	t.Helper()
	sys, _, m, _ := testState(t)
	path := filepath.Join(t.TempDir(), "state.bin")
	if err := ctxsearch.SaveState(path, sys, "text", m); err != nil {
		t.Fatal(err)
	}
	return path
}

// openMappedSystem binds a frozen system to its own mapping of a state file
// of the shared fixture with ctxsearch.OpenState — the cold-start path
// `serve` takes, fingerprint check included.
func openMappedSystem(t *testing.T, path string) (*ctxsearch.System, *ctxsearch.ContextSet, *ctxsearch.Matrix, *store.Mapped) {
	t.Helper()
	sys, _, _, _ := testState(t)
	fsys, m, mapped, err := ctxsearch.OpenState(path, sys.Ontology, sys.Corpus, "text", sys.Config())
	if err != nil {
		t.Fatal(err)
	}
	return fsys, m.ContextSet(), m, mapped
}

// TestMappedStats: /stats reports the mapped-state flag and the recorded
// cold-start duration; a plain frozen server reports neither.
func TestMappedStats(t *testing.T) {
	sys, cs, m, _ := testState(t)
	fsys, mcs, mmat, mapped := openMappedSystem(t, savedState(t))

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

// TestMappedSwapUnderLoad drives concurrent queries through a server while a
// new mapping generation is swapped in (open-new, swap, close-old). Every
// request must answer 200 from a coherent generation; the old mapping must
// end up fully released (its pages can be unmapped) once in-flight requests
// drain. Run under -race this pins the munmap-vs-reader ordering.
func TestMappedSwapUnderLoad(t *testing.T) {
	_, _, _, query := testState(t)
	path := savedState(t)
	sysA, csA, mA, mappedA := openMappedSystem(t, path)
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
		sysB, csB, mB, mappedB := openMappedSystem(t, path)
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
