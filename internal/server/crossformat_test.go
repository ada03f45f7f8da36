package server

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"ctxsearch/internal/shard"
)

// TestCrossFormatGolden is the HTTP contract of the roads from a state file
// to a serving backend: the in-process build, the memory-mapped open and
// the byte-copy open (CTXSEARCH_NO_MMAP=1) answer every endpoint
// byte-identically through a single engine and a multi-process
// coordinator. How the arrays reached memory must be unobservable in any
// response.
func TestCrossFormatGolden(t *testing.T) {
	sys, cs, m, query := testState(t)
	ref := NewPending(Config{})
	ref.install(sys, cs, m)

	path := savedState(t)

	for _, v := range []struct {
		name   string
		noMmap bool
	}{
		{name: "mmap"},
		{name: "byte-copy", noMmap: true},
	} {
		t.Run(v.name, func(t *testing.T) {
			if v.noMmap {
				t.Setenv("CTXSEARCH_NO_MMAP", "1")
			}
			fsys, mcs, mmat, mapped := openMappedSystem(t, path)
			t.Cleanup(func() { mapped.Close() })
			if v.noMmap && mapped.ZeroCopy() {
				t.Fatal("byte-copy open reports zero-copy")
			}
			parts := fsys.Index().Parts()
			rel := fsys.Config().Relevancy
			rng := rand.New(rand.NewSource(37))

			// Single engine.
			single := NewPending(Config{})
			single.SetReadyMapped(fsys, mcs, mmat, fsys.Engine(mmat), nil)
			for qi, q := range coordQueries(t) {
				for trial := 0; trial < 4; trial++ {
					sameAnswer(t, fmt.Sprintf("single query %d trial %d", qi, trial), "/search?"+mappedParams(q, rng), ref, single)
				}
			}
			for _, path := range []string{"/papers/0", "/papers/999999", "/contexts?q=" + urlQuery(query)} {
				sameAnswer(t, "single", path, ref, single)
			}

			// A multi-process coordinator over 3 shard servers.
			const n = 3
			var urls []string
			for i := 0; i < n; i++ {
				eng, _, err := shard.RangeEngineParts(fsys.Analyzer(), parts, mmat, rel, i, n)
				if err != nil {
					t.Fatal(err)
				}
				srv := NewPending(Config{})
				srv.SetReadyMapped(fsys, mcs, mmat, eng, nil)
				ts := httptest.NewServer(srv)
				t.Cleanup(ts.Close)
				urls = append(urls, ts.URL)
			}
			coord := NewCoordinator(urls, Config{}, ShardConfig{})
			t.Cleanup(coord.Close)
			for qi, q := range coordQueries(t) {
				for trial := 0; trial < 2; trial++ {
					path := "/search?" + mappedParams(q, rng)
					want := get(t, ref, path)
					got := coordGet(t, coord, path)
					if got.Code != want.Code || got.Body.String() != want.Body.String() {
						t.Fatalf("coordinator query %d trial %d %s: built (%d) %s\n%s (%d) %s",
							qi, trial, path, want.Code, want.Body, v.name, got.Code, got.Body)
					}
				}
			}
		})
	}
}

// sameAnswer requires two servers to answer one path with the same bytes.
func sameAnswer(t *testing.T, label, path string, want, got *Server) {
	t.Helper()
	w, g := get(t, want, path), get(t, got, path)
	if g.Code != w.Code || g.Body.String() != w.Body.String() {
		t.Fatalf("%s %s: built (%d) %s\nopened (%d) %s", label, path, w.Code, w.Body, g.Code, g.Body)
	}
}
