package server

import (
	"net/http/httptest"
	"testing"
)

// TestParseSearchParamsAllocs pins the cost of request-parameter parsing,
// which runs on every /search request including cache hits: one parse of
// the raw query string (a url.Values map, one value slice and one unescaped
// string per key). Reading each key through a fresh r.URL.Query() costs
// five parses — about five times the ceiling.
func TestParseSearchParamsAllocs(t *testing.T) {
	req := httptest.NewRequest("GET", "/search?q=dna+repair+AND+NOT+steel&limit=10&offset=20&threshold=0.1&boolean=1", nil)
	var p searchParams
	var ok bool
	allocs := testing.AllocsPerRun(200, func() {
		p, ok = parseSearchParams(nil, req)
	})
	if !ok || p.q != "dna repair AND NOT steel" || !p.boolean || p.opts.Limit != 10 || p.opts.Offset != 20 || p.opts.Threshold != 0.1 {
		t.Fatalf("parsed %+v ok=%v", p, ok)
	}
	const ceiling = 12
	if allocs > ceiling {
		t.Fatalf("parseSearchParams allocates %.0f times per request, ceiling %d", allocs, ceiling)
	}
	t.Logf("parseSearchParams: %.0f allocs/request", allocs)
}
