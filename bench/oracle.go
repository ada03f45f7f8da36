//go:build linux

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"

	"ctxsearch/internal/search"
	"ctxsearch/internal/server"
)

// oracleSample is how many distinct requests of a workload get an expected
// page (the issue asks for at least 200). The first distinct keys of the
// request list are taken, so under Zipf the popular keys are in the sample
// and most of the traffic is checked.
const oracleSample = 256

// handler returns the in-process single-engine server over the library,
// with or without the result cache: the same http.Handler the binary
// installs behind its listener.
func (l *library) handler(cacheOff bool) *server.Server {
	cfg := server.Config{}
	if cacheOff {
		cfg.CacheEntries = -1
	}
	s := server.NewPending(cfg)
	// The benchmark keeps ownership of the mapping (ref nil): the server
	// must not unmap it when it is dropped.
	s.SetReadyMapped(l.sys, l.cs, l.matrix, l.eng, nil)
	return s
}

// serve runs one request through an in-process handler.
func serve(h http.Handler, r request) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, r.Path, nil))
	return rec.Code, rec.Body.Bytes()
}

// expectedPages computes, for the first oracleSample distinct keys of reqs,
// the body the in-process single-engine handler serves, after checking it
// row by row (paper ids, order, relevancy bits) against the exhaustive
// Engine.SearchContext(Limit 0) + Paginate. Every serving shape must answer
// a sampled request with exactly these bytes, which makes first_page,
// hot_cache (hit and miss) and cluster_page byte-identical to each other.
func (l *library) expectedPages(reqs []request, keySpace int) ([][]byte, error) {
	expected := make([][]byte, keySpace)
	h := l.handler(true)
	sampled := 0
	for _, r := range reqs {
		if sampled == oracleSample {
			break
		}
		if expected[r.Key] != nil {
			continue
		}
		code, body := serve(h, r)
		if code != http.StatusOK {
			return nil, fmt.Errorf("oracle: %s answered %d: %.200s", r.Path, code, body)
		}
		if err := l.checkExhaustive(r, body); err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", r.Path, err)
		}
		expected[r.Key] = body
		sampled++
	}
	return expected, nil
}

// checkExhaustive compares a served page with the page cut from the
// engine's full ranked list.
func (l *library) checkExhaustive(r request, body []byte) error {
	var page server.SearchResponse
	if err := json.Unmarshal(body, &page); err != nil {
		return err
	}
	all, err := l.run(context.Background(), r, search.Options{})
	if err != nil {
		return err
	}
	want := search.Paginate(all, search.Options{Limit: r.Limit})
	if len(want) != len(page.Results) {
		return fmt.Errorf("page has %d rows, exhaustive search %d", len(page.Results), len(want))
	}
	for i, w := range want {
		got := page.Results[i]
		if got.PaperID != int(w.Doc) || math.Float64bits(got.Relevancy) != math.Float64bits(w.Relevancy) {
			return fmt.Errorf("row %d is paper %d (%v), exhaustive search has paper %d (%v)",
				i, got.PaperID, got.Relevancy, w.Doc, w.Relevancy)
		}
	}
	return nil
}

// fingerprint folds a ranked list's paper ids and relevancy bits, in order,
// into one non-zero word.
func fingerprint(res []search.Result) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, r := range res {
		d, s := uint64(r.Doc), math.Float64bits(r.Relevancy)
		for i := 0; i < 8; i++ {
			b[i], b[8+i] = byte(d>>(8*i)), byte(s>>(8*i))
		}
		h.Write(b[:])
	}
	return h.Sum64() | 1
}

// expectedLists is library_batch's oracle: for the sampled queries, the
// fingerprint of the full ranked list from a single-threaded pass, whose
// first page must equal the bounded top-k search of the same query.
func (l *library) expectedLists(reqs []request) ([]uint64, error) {
	expected := make([]uint64, len(reqs))
	ctx := context.Background()
	for i, r := range reqs {
		if i == oracleSample {
			break
		}
		all, err := l.run(ctx, r, search.Options{})
		if err != nil {
			return nil, err
		}
		top, err := l.run(ctx, r, search.Options{Limit: 10})
		if err != nil {
			return nil, err
		}
		if fingerprint(search.Paginate(all, search.Options{Limit: 10})) != fingerprint(top) {
			return nil, fmt.Errorf("oracle: %q: bounded top-10 differs from the full list's first page", r.Query)
		}
		expected[r.Key] = fingerprint(all)
	}
	return expected, nil
}
