// Package server exposes the context-based search engine over HTTP with a
// small JSON API — the deployment shape the paper's system (a digital
// library search service) implies:
//
//	GET /search?q=...&limit=N&offset=N&threshold=T&boolean=1   ranked results
//	GET /contexts?q=...                     selected contexts for a query
//	GET /papers/{id}                        one paper with contexts & scores
//	GET /stats                              corpus/context statistics
//	GET /healthz                            liveness (always 200)
//	GET /readyz                             readiness (200 once the engine is built)
//
// The serving path is production-hardened: every API request runs under a
// deadline (queryTimeout) that cancels the scoring pipeline and
// returns 503, a semaphore sheds excess load with 429 + Retry-After
// (maxInflight), panics are recovered into 500s, and requests are
// logged with status and latency. /healthz and /readyz bypass shedding and
// deadlines so probes keep answering under overload. Run serves a handler
// with sane HTTP timeouts and graceful, draining shutdown.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ctxsearch"
	"ctxsearch/internal/bitset"
	"ctxsearch/internal/cache"
	"ctxsearch/internal/index"
	"ctxsearch/internal/search"
	"ctxsearch/internal/shard"
)

// The single server's tuning, the one value of each in use.
const (
	// queryTimeout bounds each API request; on expiry the request gets a 503
	// and the scoring pipeline is cancelled.
	queryTimeout = 2 * time.Second
	// maxInflight caps concurrently served API requests; excess requests are
	// shed immediately with 429 + Retry-After.
	maxInflight = 64
	// cacheTTL bounds a cached /search response's lifetime. It exists for
	// hygiene (the corpus is immutable while an engine is installed; the
	// cache is also invalidated wholesale on every engine swap), so it can
	// be generous.
	cacheTTL = time.Minute
)

// DefaultCacheEntries is the /search result cache's capacity when
// Config.CacheEntries is 0.
const DefaultCacheEntries = 1024

// Paging bounds: a /search without limit serves DefaultLimit results, and
// requests with limit/offset above the Max caps are rejected with 400
// instead of building adversarially large result pages.
const (
	DefaultLimit = 100
	MaxLimit     = 1000
	MaxOffset    = 100000
)

// Config is what a deployment sets of the serving middleware stack.
type Config struct {
	// Logger receives request and panic logs (nil = discard).
	Logger *log.Logger
	// CacheEntries caps the /search result cache (0 = DefaultCacheEntries;
	// negative = caching disabled).
	CacheEntries int
}

// cacheSize resolves Config.CacheEntries to the cache's capacity, 0 for none.
func (c Config) cacheSize() int {
	switch {
	case c.CacheEntries == 0:
		return DefaultCacheEntries
	case c.CacheEntries < 0:
		return 0
	}
	return c.CacheEntries
}

// tuning is the serving configuration no deployment sets: the middleware's
// deadline and admission cap, and the coordinator's failure policy. The
// exported constructors serve with defaultTuning, built from the constants;
// tests that need other values pass theirs to the unexported ones. A zero
// queryTimeout, shardTimeout or probeInterval turns the request deadline,
// the per-attempt deadline or the prober off, and a zero maxInflight admits
// every request.
type tuning struct {
	queryTimeout     time.Duration
	maxInflight      int
	shardTimeout     time.Duration
	maxRetries       int
	retryBudget      float64
	retryRatio       float64
	breakerThreshold int
	breakerCooldown  time.Duration
	probeInterval    time.Duration
	backoffBase      time.Duration
	backoffMax       time.Duration
	backoffJitter    float64
}

// defaultTuning is the tuning every deployment serves with.
func defaultTuning() tuning {
	return tuning{
		queryTimeout:     queryTimeout,
		maxInflight:      maxInflight,
		shardTimeout:     shardTimeout,
		maxRetries:       maxRetries,
		retryBudget:      retryBudget,
		retryRatio:       retryRatio,
		breakerThreshold: breakerThreshold,
		breakerCooldown:  breakerCooldown,
		probeInterval:    probeInterval,
		backoffBase:      backoffBase,
		backoffMax:       backoffMax,
		backoffJitter:    backoffJitter,
	}
}

// StateRef is a refcounted handle on externally-owned resources backing a
// backend — in practice the mmapped state file (*store.Mapped) whose
// pages the engine's CSR arrays alias. Retain/Release bracket each request
// so a swap never unmaps memory a handler is still reading; Close drops
// the owner reference when the backend is swapped out (the mapping goes
// away once the last in-flight request releases).
type StateRef interface {
	Retain() bool
	Release()
	Close() error
}

// backend bundles the query-serving state; it is swapped in atomically once
// the engine is built, flipping /readyz to 200. Prestige is held in the CSR
// matrix the engine's hot path reads.
type backend struct {
	sys      *ctxsearch.System
	cs       *ctxsearch.ContextSet
	matrix   *ctxsearch.Matrix
	searcher *ctxsearch.Engine
	// ref, when non-nil, is the mapped state this backend reads from. The
	// server owns it: installed via SetReadyMapped, closed on swap-out.
	ref StateRef
}

// acquire takes a per-request reference on the backend's mapped state. It
// fails only when the backend raced a swap-out and every other holder
// already released — the caller must reload the backend pointer.
func (b *backend) acquire() bool { return b.ref == nil || b.ref.Retain() }

// release returns acquire's reference.
func (b *backend) release() {
	if b.ref != nil {
		b.ref.Release()
	}
}

// Server wires the search engine into an http.Handler behind the
// middleware stack.
type Server struct {
	tu      tuning
	logger  *log.Logger
	mux     *http.ServeMux
	handler http.Handler
	backend atomic.Pointer[backend]
	// coldStart is the boot duration (nanoseconds) reported by /stats —
	// recorded by the deployment via SetColdStart when readiness flips.
	coldStart atomic.Int64
	// cache holds marshalled /search response bodies keyed on (query,
	// boolean flag, paging options); concurrent identical queries are
	// coalesced into one engine call (singleflight), and every engine
	// swap invalidates the whole cache via its generation counter. Nil
	// when Config disables caching.
	cache *cache.Cache[[]byte]
	// testHook, when non-nil, runs inside handleSearch before the engine
	// call — the fault-injection point the server tests use to simulate
	// slow queries. Production code never sets it.
	testHook func(ctx context.Context)
}

// New assembles a ready server with default Config over the whole-corpus
// engine and the prestige matrix the engine and the /papers endpoint read.
func New(sys *ctxsearch.System, m *ctxsearch.Matrix) *Server {
	s := NewPending(Config{})
	s.SetReadyMapped(sys, m.ContextSet(), m, sys.Engine(m), nil)
	return s
}

// NewPending assembles a server with no engine yet: /healthz answers 200,
// /readyz and every API endpoint answer 503 until SetReadyMapped is called.
// This lets a deployment bind its port (liveness) while the index and
// prestige scores are still being built or loaded.
func NewPending(cfg Config) *Server { return newPending(cfg, defaultTuning()) }

// newPending is NewPending under tuning tu.
func newPending(cfg Config, tu tuning) *Server {
	s := &Server{tu: tu, mux: http.NewServeMux()}
	s.cache = cache.New[[]byte](cfg.cacheSize(), cacheTTL)
	s.mux.HandleFunc("GET /search", s.handleSearch)
	s.mux.HandleFunc("POST /shard/search", s.handleShardSearch)
	s.mux.HandleFunc("GET /contexts", s.handleContexts)
	s.mux.HandleFunc("GET /papers/{id}", s.handlePaper)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.handler, s.logger = newFront(cfg, tu, s.mux)
	return s
}

// SetReadyMapped installs the engine state, flipping /readyz (and the API)
// live; safe to call concurrently with serving. searcher answers the queries
// — the whole-corpus engine, or a shard process's, restricted to its paper
// range (shard.RangeEngineParts). sys, cs and m serve /papers, /contexts,
// rendering and /stats; they must be the corpus-global state the engine was
// built from. ref, when non-nil, is the mapped state file all of it reads
// from: the server takes ownership (open-new, swap, close-old). The old
// backend's mapping is closed after the swap — its pages stay valid until
// the last in-flight request that retained them releases, then unmap.
func (s *Server) SetReadyMapped(sys *ctxsearch.System, cs *ctxsearch.ContextSet, m *ctxsearch.Matrix, searcher *ctxsearch.Engine, ref StateRef) {
	old := s.backend.Swap(&backend{
		sys:      sys,
		cs:       cs,
		matrix:   m,
		searcher: searcher,
		ref:      ref,
	})
	// Responses computed by the previous engine are now stale; requests
	// already in flight may still insert results of the old engine, which
	// the generation bump also defuses (stale-generation loads are
	// returned to their caller but never cached).
	s.cache.Bump()
	if old != nil && old.ref != nil {
		_ = old.ref.Close()
	}
}

// Close releases the currently installed backend's mapped state, if any.
// The server stops being ready; call on shutdown after draining.
func (s *Server) Close() error {
	if b := s.backend.Swap(nil); b != nil && b.ref != nil {
		return b.ref.Close()
	}
	return nil
}

// SetColdStart records how long boot took from process start (or build
// start) to the readiness flip; /stats reports it as cold_start_ms.
func (s *Server) SetColdStart(d time.Duration) { s.coldStart.Store(int64(d)) }

// Ready reports whether the engine state is installed.
func (s *Server) Ready() bool { return s.backend.Load() != nil }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Ready() {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "starting"})
}

// acquire returns the installed backend with a reference taken on its mapped
// state (the caller must b.release() when done), or nil while the engine is
// still being built. A failed acquire means the loaded pointer raced a
// swap-out; the fresh pointer acquires.
func (s *Server) acquire() *backend {
	for {
		b := s.backend.Load()
		if b == nil || b.acquire() {
			return b
		}
	}
}

// ready is acquire for a handler: no backend is a 503.
func (s *Server) ready(w http.ResponseWriter) *backend {
	b := s.acquire()
	if b == nil {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "engine not ready")
	}
	return b
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeQueryErr maps a search-pipeline error to a response: the request's
// context ending is writeCtxErr's, anything else is a 400 (bad query).
func (s *Server) writeQueryErr(w http.ResponseWriter, r *http.Request, err error) {
	if !writeCtxErr(w, r, s.logger, s.tu.queryTimeout, err) {
		writeErr(w, http.StatusBadRequest, "bad query: %v", err)
	}
}

// SearchResponse is the /search payload.
type SearchResponse struct {
	Query   string         `json:"query"`
	Results []SearchResult `json:"results"`
}

// SearchResult is one /search row.
type SearchResult struct {
	PaperID     int     `json:"paper_id"`
	PMID        int     `json:"pmid"`
	Year        int     `json:"year"`
	Title       string  `json:"title"`
	Snippet     string  `json:"snippet"`
	Relevancy   float64 `json:"relevancy"`
	Prestige    float64 `json:"prestige"`
	Match       float64 `json:"match"`
	Context     string  `json:"context"`
	ContextName string  `json:"context_name"`
}

// searchParams is a validated /search request: the trimmed query, the
// boolean-mode flag and the bounded paging options.
type searchParams struct {
	q       string
	boolean bool
	opts    ctxsearch.SearchOptions
}

// parseSearchParams validates the /search query string. On a bad request it
// writes the 400 itself and reports ok=false. Shared by the single-engine
// handler and the scatter-gather Coordinator so both fronts accept exactly
// the same requests.
func parseSearchParams(w http.ResponseWriter, r *http.Request) (p searchParams, ok bool) {
	// URL.Query re-parses the raw query string on every call: parse once.
	vals := r.URL.Query()
	p.q = strings.TrimSpace(vals.Get("q"))
	if p.q == "" {
		writeErr(w, http.StatusBadRequest, "missing query parameter q")
		return p, false
	}
	// A request without limit serves the first DefaultLimit results — an
	// omitted limit means "a reasonable first page", never "the whole
	// corpus" (clients wanting more pages page explicitly, up to MaxLimit
	// per request).
	p.opts = ctxsearch.SearchOptions{Limit: DefaultLimit}
	if v := vals.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, "bad limit %q", v)
			return p, false
		}
		if n > MaxLimit {
			writeErr(w, http.StatusBadRequest, "limit %d exceeds maximum %d", n, MaxLimit)
			return p, false
		}
		p.opts.Limit = n
	}
	if v := vals.Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad offset %q", v)
			return p, false
		}
		if n > MaxOffset {
			writeErr(w, http.StatusBadRequest, "offset %d exceeds maximum %d", n, MaxOffset)
			return p, false
		}
		p.opts.Offset = n
	}
	if v := vals.Get("threshold"); v != "" {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil || !(t >= 0 && t <= 1) { // NaN parses and fails both comparisons
			writeErr(w, http.StatusBadRequest, "bad threshold %q", v)
			return p, false
		}
		p.opts.Threshold = t
	}
	if v := vals.Get("boolean"); v == "1" || v == "true" {
		p.boolean = true
	}
	return p, true
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	b := s.ready(w)
	if b == nil {
		return
	}
	defer b.release()
	p, ok := parseSearchParams(w, r)
	if !ok {
		return
	}
	q, boolean, opts := p.q, p.boolean, p.opts
	ctx := r.Context()
	// The cache holds fully marshalled bodies, so a hit writes bytes
	// without touching the engine, the corpus or the JSON encoder.
	// Concurrent misses for the same key run one engine call; the loader
	// re-reads the backend pointer so a response computed by a just-
	// replaced engine can never be cached past the swap's generation bump.
	body, err := s.cache.Do(searchCacheKey(q, boolean, opts), func() ([]byte, error) {
		return s.buildSearchResponse(ctx, q, boolean, opts)
	})
	if err != nil {
		s.writeQueryErr(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// searchCacheKey fingerprints everything that determines a /search body:
// the trimmed query, the boolean flag and the paging/threshold options.
// strconv formats the float threshold exactly, so distinct options can
// never collide.
func searchCacheKey(q string, boolean bool, opts ctxsearch.SearchOptions) string {
	var b strings.Builder
	b.Grow(len(q) + 24)
	b.WriteString(q)
	b.WriteByte(0)
	if boolean {
		b.WriteByte('b')
	}
	b.WriteString(strconv.Itoa(opts.Limit))
	b.WriteByte(':')
	b.WriteString(strconv.Itoa(opts.Offset))
	b.WriteByte(':')
	b.WriteString(strconv.FormatFloat(opts.Threshold, 'g', -1, 64))
	return b.String()
}

// buildSearchResponse runs the engine and marshals the response body.
func (s *Server) buildSearchResponse(ctx context.Context, q string, boolean bool, opts ctxsearch.SearchOptions) ([]byte, error) {
	// The backend must be re-read inside the cache load (see handleSearch),
	// and the re-read pointer needs its own reference — the handler's
	// reference covers the pointer it loaded, not this one.
	b := s.acquire()
	if b == nil {
		return nil, errors.New("engine not ready")
	}
	defer b.release()
	if s.testHook != nil {
		s.testHook(ctx)
	}
	var results []ctxsearch.SearchResult
	var err error
	if boolean {
		results, err = b.searcher.SearchBooleanContext(ctx, q, opts)
	} else {
		results, err = b.searcher.SearchContext(ctx, q, opts)
	}
	if err != nil {
		return nil, err
	}
	j := getBuf()
	defer putBuf(j)
	if err := b.renderPage(ctx, j, q, results); err != nil {
		return nil, err
	}
	// The cache keeps the body: copy it out at its size.
	return bytes.Clone(j.b), nil
}

// renderPage renders ranked rows and appends the finished /search body to
// j. /search and a finishing /shard/search both end here.
func (b *backend) renderPage(ctx context.Context, j *jsonBuf, q string, results []ctxsearch.SearchResult) error {
	rows, err := b.renderResults(ctx, q, results)
	if err != nil {
		return err
	}
	j.page(SearchResponse{Query: q, Results: rows})
	return j.err
}

// renderResults resolves engine rows into API rows: paper metadata, the
// highlighted snippet and the context name. Every row's Doc and Context must
// exist in b.sys (engine rows always do; handleShardSearch checks rows that
// arrive over the wire).
func (b *backend) renderResults(ctx context.Context, q string, results []ctxsearch.SearchResult) ([]SearchResult, error) {
	rows := []SearchResult{}
	// One snippet renderer a page: the query's stems resolve once.
	snippets := b.sys.Index().Snippeter(q, index.SnippetOptions{Window: 24, Pre: "**", Post: "**"})
	for _, res := range results {
		// Snippet extraction re-reads document text: keep honouring the
		// deadline while building the response.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p := b.sys.Corpus.Paper(res.Doc)
		rows = append(rows, SearchResult{
			PaperID:     int(res.Doc),
			PMID:        p.PMID,
			Year:        p.Year,
			Title:       p.Title,
			Snippet:     snippets.Snippet(res.Doc),
			Relevancy:   res.Relevancy,
			Prestige:    res.Prestige,
			Match:       res.Match,
			Context:     string(res.Context),
			ContextName: b.sys.Ontology.Term(res.Context).Name,
		})
	}
	return rows, nil
}

// ShardSearchRequest is the POST /shard/search payload: one shard's slice
// of a scatter-gather query. Limit may exceed MaxLimit (up to
// MaxOffset+MaxLimit) because the coordinator folds the client's offset
// into the shard limit (shard.ShardOptions); a range's rows always start at
// its best. With Finish the shard is the last range asked: it answers the
// finished /search body instead of its rows.
type ShardSearchRequest struct {
	Q         string       `json:"q"`
	Boolean   bool         `json:"boolean,omitempty"`
	Limit     int          `json:"limit"`
	Threshold float64      `json:"threshold,omitempty"`
	Finish    *ShardFinish `json:"finish,omitempty"`
}

// ShardFinish asks a shard to finish the page: Rows are the other ranges'
// merged rows, (Offset, Limit) the client's window over the merge of those
// with the shard's own. That merge is the merge of every range's rows: a
// row of the global top Offset+Limit is in the top Offset+Limit of any
// subset of the papers that holds it, so cutting the others' merge there
// drops none.
type ShardFinish struct {
	Offset int        `json:"offset"`
	Limit  int        `json:"limit"`
	Rows   []ShardRow `json:"rows"`
}

// ShardRow is one unrendered row on the shard wire — the engine's result
// {Doc, Relevancy, Match, Prestige, Context} as {"d","r","m","p","c"},
// which is all a merge needs.
type ShardRow = ctxsearch.SearchResult

// misranked returns the index of the first row that does not rank strictly
// after its predecessor under search.SortResults — out of order, or the
// same paper twice in a row — and -1 when there is none. Rows off the wire
// are checked with it before a merge that relies on their order reads them.
func misranked(rows []ShardRow) int {
	for i := 1; i < len(rows); i++ {
		if !search.WorseResult(rows[i], rows[i-1]) {
			return i
		}
	}
	return -1
}

// ShardSearchResponse carries one shard's ranked, unrendered page back to
// the coordinator. Rows are in the engine's result order (descending
// relevancy, ties by ascending paper id).
type ShardSearchResponse struct {
	Results []ShardRow `json:"results"`
}

// pageRowsHeader carries the row count of a finished page, and marks the
// answer as one: a backend that does not know Finish never sets it.
const pageRowsHeader = "X-Page-Rows"

// maxShardBody caps a /shard/search body: MaxOffset+MaxLimit wire rows fit.
// The worst-case finishing request encodes to 114 bytes a row, 11.5 MB on
// the test corpus (TestShardSearchBodyCap).
const maxShardBody = 16 << 20

// handleShardSearch serves the internal scatter-gather endpoint: the
// backend's own ranked page for one query, unrendered — or, asked to finish,
// that page merged with the other ranges' rows and rendered by the one
// renderPage, so a cluster's page and a single server's are the output of
// one function on the same inputs. Every server exposes it — what makes a
// process a "shard" is being handed a range-restricted searcher at boot, not
// a different route table. The body is decoded strictly: a field this
// version does not know is a 400, never silently dropped.
func (s *Server) handleShardSearch(w http.ResponseWriter, r *http.Request) {
	b := s.ready(w)
	if b == nil {
		return
	}
	defer b.release()
	j := getBuf()
	defer putBuf(j)
	err := j.readBody(r.Body, maxShardBody)
	var req ShardSearchRequest
	if err == nil {
		req, err = decodeShardRequest(j.b)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad shard request: %v", err)
		return
	}
	req.Q = strings.TrimSpace(req.Q)
	if req.Q == "" {
		writeErr(w, http.StatusBadRequest, "missing query q")
		return
	}
	// The coordinator may legitimately ask for offset+limit rows in one
	// page; anything beyond the combined cap is a bug or abuse.
	if req.Limit < 0 || req.Limit > MaxOffset+MaxLimit {
		writeErr(w, http.StatusBadRequest, "bad shard limit %d", req.Limit)
		return
	}
	if req.Threshold < 0 || req.Threshold > 1 {
		writeErr(w, http.StatusBadRequest, "bad shard threshold %v", req.Threshold)
		return
	}
	fin := req.Finish
	if fin != nil {
		if fin.Limit < 1 || fin.Limit > MaxLimit || fin.Offset < 0 || fin.Offset > MaxOffset || len(fin.Rows) > MaxOffset+MaxLimit {
			writeErr(w, http.StatusBadRequest, "bad finish: offset %d, limit %d, %d rows", fin.Offset, fin.Limit, len(fin.Rows))
			return
		}
		// The rows come off the wire: each must name a paper and a context
		// this corpus has, and MergePages needs them ranked.
		for _, row := range fin.Rows {
			if b.sys.Corpus.Paper(row.Doc) == nil || b.sys.Ontology.Term(row.Context) == nil {
				writeErr(w, http.StatusBadRequest, "bad finish row: doc %d, context %q", row.Doc, row.Context)
				return
			}
		}
		if i := misranked(fin.Rows); i >= 0 {
			writeErr(w, http.StatusBadRequest, "bad finish rows: row %d (doc %d) does not rank after row %d (doc %d)", i, fin.Rows[i].Doc, i-1, fin.Rows[i-1].Doc)
			return
		}
	}
	ctx := r.Context()
	if s.testHook != nil {
		s.testHook(ctx)
	}
	opts := ctxsearch.SearchOptions{Limit: req.Limit, Threshold: req.Threshold}
	var results []ctxsearch.SearchResult
	if req.Boolean {
		results, err = b.searcher.SearchBooleanContext(ctx, req.Q, opts)
	} else {
		results, err = b.searcher.SearchContext(ctx, req.Q, opts)
	}
	if err != nil {
		s.writeQueryErr(w, r, err)
		return
	}
	// The request is decoded: its buffer takes the answer.
	j.b = j.b[:0]
	if fin == nil {
		if j.rowsAnswer(ShardSearchResponse{Results: results}); j.err != nil {
			writeErr(w, http.StatusInternalServerError, "encoding rows: %v", j.err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(j.b)
		return
	}
	// MergePages also needs the pages to hold disjoint papers.
	seen := bitset.New(b.sys.Corpus.Len())
	for _, rows := range [][]ShardRow{results, fin.Rows} {
		for _, row := range rows {
			if seen.Contains(int(row.Doc)) {
				writeErr(w, http.StatusBadRequest, "bad finish rows: doc %d is listed twice", row.Doc)
				return
			}
			seen.Add(int(row.Doc))
		}
	}
	page := shard.MergePages([][]ShardRow{results, fin.Rows}, ctxsearch.SearchOptions{Limit: fin.Limit, Offset: fin.Offset})
	if err := b.renderPage(ctx, j, req.Q, page); err != nil {
		s.writeQueryErr(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(pageRowsHeader, strconv.Itoa(len(page)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(j.b)
}

// ContextInfo is one /contexts row.
type ContextInfo struct {
	Term   string  `json:"term"`
	Name   string  `json:"name"`
	Level  int     `json:"level"`
	Papers int     `json:"papers"`
	Score  float64 `json:"score"`
}

func (s *Server) handleContexts(w http.ResponseWriter, r *http.Request) {
	b := s.ready(w)
	if b == nil {
		return
	}
	defer b.release()
	q := strings.TrimSpace(r.URL.Query().Get("q"))
	if q == "" {
		writeErr(w, http.StatusBadRequest, "missing query parameter q")
		return
	}
	sel, err := b.searcher.SelectContextsContext(r.Context(), q, ctxsearch.SearchOptions{})
	if err != nil {
		s.writeQueryErr(w, r, err)
		return
	}
	out := []ContextInfo{}
	for _, c := range sel {
		t := b.sys.Ontology.Term(c.Context)
		out = append(out, ContextInfo{
			Term:   string(c.Context),
			Name:   t.Name,
			Level:  b.sys.Ontology.Level(c.Context),
			Papers: b.cs.Size(c.Context),
			Score:  c.Score,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// PaperResponse is the /papers/{id} payload.
type PaperResponse struct {
	PaperID    int            `json:"paper_id"`
	PMID       int            `json:"pmid"`
	Year       int            `json:"year"`
	Title      string         `json:"title"`
	Abstract   string         `json:"abstract"`
	Authors    []string       `json:"authors"`
	References []int          `json:"references"`
	CitedBy    []int          `json:"cited_by"`
	Contexts   []PaperContext `json:"contexts"`
}

// PaperContext is one context membership of a paper.
type PaperContext struct {
	Term     string  `json:"term"`
	Name     string  `json:"name"`
	Prestige float64 `json:"prestige"`
}

func (s *Server) handlePaper(w http.ResponseWriter, r *http.Request) {
	b := s.ready(w)
	if b == nil {
		return
	}
	defer b.release()
	idStr := r.PathValue("id")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad paper id %q", idStr)
		return
	}
	p := b.sys.Corpus.Paper(ctxsearch.PaperID(id))
	if p == nil {
		writeErr(w, http.StatusNotFound, "no paper %d", id)
		return
	}
	resp := PaperResponse{
		PaperID:  int(p.ID),
		PMID:     p.PMID,
		Year:     p.Year,
		Title:    p.Title,
		Abstract: p.Abstract,
		Authors:  p.Authors,
	}
	for _, ref := range p.References {
		resp.References = append(resp.References, int(ref))
	}
	for _, c := range b.sys.Corpus.CitedBy(p.ID) {
		resp.CitedBy = append(resp.CitedBy, int(c))
	}
	for _, ctx := range b.cs.ContextsOf(p.ID) {
		resp.Contexts = append(resp.Contexts, PaperContext{
			Term:     string(ctx),
			Name:     b.sys.Ontology.Term(ctx).Name,
			Prestige: b.matrix.Get(ctx, p.ID),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// StatsResponse is the /stats payload.
type StatsResponse struct {
	Papers         int    `json:"papers"`
	OntologyTerms  int    `json:"ontology_terms"`
	Contexts       int    `json:"contexts"`
	ScoredContexts int    `json:"scored_contexts"`
	ContextSetKind string `json:"context_set_kind"`
	// Result-cache effectiveness counters (all zero when caching is
	// disabled).
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheCoalesced uint64 `json:"cache_coalesced"`
	CacheEntries   int    `json:"cache_entries"`
	// ColdStartMS is the last boot's duration in milliseconds (state load
	// or build through the readiness flip); 0 when never recorded.
	ColdStartMS float64 `json:"cold_start_ms,omitempty"`
	// MappedState reports whether the backend serves from a zero-copy
	// memory-mapped state file.
	MappedState bool `json:"mapped_state,omitempty"`
	// Sharding holds a coordinator's scatter-gather counters; a Server's
	// /stats never carries it.
	Sharding *shard.Snapshot `json:"sharding,omitempty"`
	// TopK is never set: the index's top-k evaluator is gone.
	//
	// Deprecated: kept only because bench/run.go compiles against it; it
	// goes when bench/ stops naming it.
	TopK *index.TopKStats `json:"topk,omitempty"`
	// AnalyzedPapers counts this generation's paper analyses: every paper
	// after an in-process build, 0 on a state-booted server that only
	// serves.
	AnalyzedPapers int `json:"analyzed_papers"`
	// TokenTablePapers counts the papers whose token streams the analyzer
	// holds: all of them after an in-process build; on a state-booted
	// server those a boolean phrase or field check has tokenized.
	TokenTablePapers int `json:"token_table_papers"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	b := s.ready(w)
	if b == nil {
		return
	}
	defer b.release()
	cst := s.cache.Stats()
	resp := StatsResponse{
		Papers:           b.sys.Corpus.Len(),
		OntologyTerms:    b.sys.Ontology.Len(),
		Contexts:         len(b.cs.Contexts()),
		ScoredContexts:   b.matrix.NumContexts(),
		ContextSetKind:   b.cs.Kind().String(),
		CacheHits:        cst.Hits,
		CacheMisses:      cst.Misses,
		CacheCoalesced:   cst.Coalesced,
		CacheEntries:     cst.Entries,
		MappedState:      b.ref != nil,
		AnalyzedPapers:   b.sys.Analyzer().AnalyzedPapers(),
		TokenTablePapers: b.sys.Analyzer().TokenTablePapers(),
	}
	if cs := s.coldStart.Load(); cs > 0 {
		resp.ColdStartMS = float64(cs) / float64(time.Millisecond)
	}
	writeJSON(w, http.StatusOK, resp)
}
