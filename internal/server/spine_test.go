package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"testing"

	"ctxsearch"
	"ctxsearch/internal/goldentest"
	"ctxsearch/internal/store"
)

// The HTTP layer of the spine battery: every backend answers every
// generated query and page, /papers and /contexts with the built single
// server's status and bytes, and a coordinator renders exactly the rows it
// serves. Two entry points split the table: the coordinators over built
// ranges, and the roads from the state file — mmap'd and byte-copied — to a
// single server and to a coordinator over 3 ranges.

// TestCoordinatorGoldenEquality: coordinators over 1, 2, 3 and 5 built
// ranges, and over 2 ranges x 2 replicas.
func TestCoordinatorGoldenEquality(t *testing.T) {
	ref, paths := httpReference(t)
	for _, row := range []httpRow{
		{name: "1 range", ranges: 1},
		{name: "2 ranges", ranges: 2},
		{name: "3 ranges", ranges: 3},
		{name: "5 ranges", ranges: 5},
		{name: "2 ranges x 2 replicas", ranges: 2, replicas: true},
	} {
		t.Run(row.name, func(t *testing.T) { row.check(t, ref, paths) })
	}
}

// TestCrossFormatGolden: how the state file's arrays reached memory — mmap
// or byte-copy (CTXSEARCH_NO_MMAP=1) — is unobservable in any response,
// from a single server or from a coordinator over 3 ranges.
func TestCrossFormatGolden(t *testing.T) {
	ref, paths := httpReference(t)
	state := savedState(t)
	for _, boot := range []string{"mmap", "byte-copy"} {
		t.Run(boot, func(t *testing.T) {
			for _, row := range []httpRow{
				{name: "single", boot: boot, state: state},
				{name: "3 mapped ranges", boot: boot, ranges: 3, state: state},
			} {
				t.Run(row.name, func(t *testing.T) { row.check(t, ref, paths) })
			}
		})
	}
}

// httpReference returns the built single server and the paths the battery
// asks: every generated query and page, /papers/{0,5,999999,xyz} and
// /contexts with and without q. The rows of each page it renders are first
// held to the engine's page — doc, context and the bits of the three
// scores, decoded from the body.
func httpReference(t *testing.T) (*Server, []string) {
	t.Helper()
	sys, cs, m, query := testState(t)
	ref := NewPending(Config{}).install(sys, cs, m)
	eng := sys.Engine(m)
	paths := []string{"/papers/0", "/papers/5", "/papers/999999", "/papers/xyz", "/contexts?q=" + urlQuery(query), "/contexts"}
	for _, q := range goldentest.Queries(t, sys.Ontology, m.Contexts()) {
		for _, p := range goldentest.Pages(17, 2) {
			if p.Limit == 0 && p.Offset == 0 {
				continue // HTTP has no unlimited page: this is DefaultLimit's, which the 1000-offset page asks for
			}
			path := "/search?" + p.Params(q)
			paths = append(paths, path)
			run := eng.SearchContext
			if q.Boolean {
				run = eng.SearchBooleanContext
			}
			want, err := run(context.Background(), q.Text, ctxsearch.SearchOptions{Threshold: p.Threshold, Limit: cmp.Or(p.Limit, DefaultLimit), Offset: p.Offset})
			rec := get(t, ref, path)
			if err != nil || rec.Code != http.StatusOK {
				if (err == nil) != (rec.Code == http.StatusOK) {
					t.Fatalf("%s: engine error %v, server %d %s", path, err, rec.Code, rec.Body)
				}
				continue
			}
			var body SearchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatal(err)
			}
			got := make([]ctxsearch.SearchResult, len(body.Results))
			for i, r := range body.Results {
				got[i] = ctxsearch.SearchResult{Doc: ctxsearch.PaperID(r.PaperID), Relevancy: r.Relevancy, Match: r.Match, Prestige: r.Prestige, Context: ctxsearch.TermID(r.Context)}
			}
			goldentest.Same(t, path, got, want)
		}
	}
	slices.Sort(paths)
	return ref, slices.Compact(paths) // pages that differ only in what HTTP does not send
}

// httpRow is one backend of the battery's table.
type httpRow struct {
	name     string
	boot     string // "": built in-process; "mmap" or "byte-copy": opened from state
	ranges   int    // 0: one server; else a coordinator over that many ranges
	replicas bool   // two replicas per range
	state    string // the state file a booted row opens
}

// check builds the row's backend and requires it to answer every path with
// ref's status and bytes.
func (row httpRow) check(t *testing.T, ref *Server, paths []string) {
	sys, cs, m, _ := testState(t)
	if row.boot != "" {
		if row.boot == "byte-copy" {
			t.Setenv("CTXSEARCH_NO_MMAP", "1")
		}
		var mapped *store.Mapped
		sys, cs, m, mapped = openMappedSystem(t, row.state)
		t.Cleanup(func() { mapped.Close() })
		if row.boot == "byte-copy" && mapped.ZeroCopy() {
			t.Fatal("byte-copy open reports zero-copy")
		}
	}
	var h http.Handler = NewPending(Config{}).install(sys, cs, m)
	switch {
	case row.replicas:
		h = replicatedCluster(t, row.ranges, nil, ShardConfig{})
	case row.ranges > 0:
		h, _ = clusterOver(t, sys, cs, m, row.ranges, ShardConfig{})
	}
	for _, path := range paths {
		want, got := get(t, ref, path), get(t, h, path)
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%s: got (%d) %s\nwant (%d) %s", path, got.Code, got.Body, want.Code, want.Body)
		}
	}
	if c, ok := h.(*Coordinator); ok {
		snap := c.metrics.Snapshot()
		if snap.RowsServed == 0 || snap.RowsRendered != snap.RowsServed || snap.RenderCalls > snap.Searches {
			t.Fatalf("rendered %d rows in %d calls for %d served over %d searches",
				snap.RowsRendered, snap.RenderCalls, snap.RowsServed, snap.Searches)
		}
	}
}
