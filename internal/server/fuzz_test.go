package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"ctxsearch/internal/search"
)

// panicLog is a server log sink that keeps only what the recovery
// middleware writes, so a fuzz target can assert that no input panicked a
// handler (withRecovery would turn the panic into a 500 and the process
// would carry on).
type panicLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (p *panicLog) Write(b []byte) (int, error) {
	if bytes.Contains(b, []byte("panic serving")) {
		p.mu.Lock()
		p.buf.Write(b)
		p.mu.Unlock()
	}
	return len(b), nil
}

// fuzzPost serves one POST with body on a server over the shared fixture
// and checks the contract every shard endpoint owes hostile input: a 400
// with a JSON error or a 200 whose body decodes into page — never a panic,
// never another status.
func fuzzPost(t *testing.T, srv *Server, panics *panicLog, path string, body []byte, page any) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if panics.buf.Len() > 0 {
		t.Fatalf("%s panicked on %q:\n%s", path, body, panics.buf.String())
	}
	switch rec.Code {
	case http.StatusOK:
		if err := json.Unmarshal(rec.Body.Bytes(), page); err != nil {
			t.Fatalf("%s answered %q with a malformed 200: %v\n%s", path, body, err, rec.Body)
		}
	case http.StatusBadRequest:
		var e map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
			t.Fatalf("%s answered %q with a malformed 400: %s", path, body, rec.Body)
		}
	default:
		t.Fatalf("%s answered %q with %d: %s", path, body, rec.Code, rec.Body)
	}
	return rec
}

func fuzzServer(f *testing.F) (*Server, *panicLog) {
	sys, cs, m, _ := testState(f)
	panics := &panicLog{}
	srv := newPending(Config{Logger: log.New(panics, "", 0)}, queryDeadline(0))
	srv.install(sys, cs, m)
	return srv, panics
}

// FuzzShardFinish: a finishing /shard/search takes rows off the wire.
// Whatever they name — papers outside the corpus, contexts the ontology never
// had, a paper of the shard's own range, more rows than any merge holds — and
// whatever window comes with them, the answer is a 400 or a finished page of
// at most finish.limit distinct papers in descending relevancy (ties by
// ascending paper ID), counted in the row-count header. The checked-in
// corpus holds the hostile shapes; rows the fixture can render are added
// here, where its identifiers are known.
func FuzzShardFinish(f *testing.F) {
	srv, panics := fuzzServer(f)
	sys, _, _, query := testState(f)
	ctx := sys.Ontology.TermIDs()[0]
	n := sys.Corpus.Len()
	f.Add([]byte(fmt.Sprintf(`{"q":%q,"limit":10,"finish":{"offset":0,"limit":10,"rows":[{"d":3,"r":0.5,"m":0.25,"p":0.75,"c":%q}]}}`, query, ctx)))
	f.Add([]byte(fmt.Sprintf(`{"q":%q,"limit":4,"finish":{"offset":2,"limit":2,"rows":[{"d":3,"c":%q},{"d":3,"c":%q}]}}`, query, ctx, ctx)))
	f.Add([]byte(fmt.Sprintf(`{"q":%q,"limit":1,"finish":{"offset":0,"limit":1,"rows":[{"d":%d,"c":%q}]}}`, query, n, ctx)))
	f.Add([]byte(fmt.Sprintf(`{"q":%q,"limit":10,"finish":{"offset":0,"limit":10,"rows":[{"d":3,"r":0.99,"c":%q},{"d":3,"r":0.98,"c":%q}]}}`, query, ctx, ctx)))
	f.Add([]byte(fmt.Sprintf(`{"q":%q,"limit":10,"finish":{"offset":0,"limit":10,"rows":[{"d":4,"r":0.1,"c":%q},{"d":5,"r":0.98,"c":%q}]}}`, query, ctx, ctx)))
	f.Add([]byte(`{"q":"x","limit":1,"finish":{"offset":0,"limit":1,"rows":[` + strings.Repeat(`{},`, 300000) + `{}]}}`))   // fits the body cap, exceeds MaxOffset+MaxLimit
	f.Add([]byte(`{"q":"x","limit":1,` + strings.Repeat(" ", maxShardBody) + `"finish":{"offset":0,"limit":1,"rows":[]}}`)) // cut off by the body cap
	f.Fuzz(func(t *testing.T, body []byte) {
		var page SearchResponse
		rec := fuzzPost(t, srv, panics, "/shard/search", body, &page)
		var req ShardSearchRequest
		if rec.Code != http.StatusOK || json.Unmarshal(body, &req) != nil || req.Finish == nil {
			return
		}
		if len(page.Results) > req.Finish.Limit || rec.Header().Get(pageRowsHeader) != fmt.Sprint(len(page.Results)) {
			t.Fatalf("limit %d, %d rows rendered, %s %q: %q", req.Finish.Limit, len(page.Results),
				pageRowsHeader, rec.Header().Get(pageRowsHeader), body)
		}
		seen := map[int]bool{}
		for i, r := range page.Results {
			if seen[r.PaperID] {
				t.Fatalf("paper %d served twice: %q", r.PaperID, body)
			}
			seen[r.PaperID] = true
			if i == 0 {
				continue
			}
			if prev := page.Results[i-1]; r.Relevancy > prev.Relevancy || r.Relevancy == prev.Relevancy && r.PaperID < prev.PaperID {
				t.Fatalf("rows %d and %d out of order: %q", i-1, i, body)
			}
		}
	})
}

// FuzzShardSearchRequest: the body of /shard/search is decoded strictly and
// validated field by field; anything else — an unknown field, bytes after the
// object — is a 400, and a 200 without "finish" carries unrendered rows in
// the engine's order.
func FuzzShardSearchRequest(f *testing.F) {
	srv, panics := fuzzServer(f)
	_, _, _, query := testState(f)
	f.Add([]byte(fmt.Sprintf(`{"q":%q,"limit":5}`, query)))
	f.Add([]byte(fmt.Sprintf(`{"q":%q,"boolean":true,"limit":%d,"threshold":0.2}`, query, MaxOffset+MaxLimit)))
	f.Add([]byte(fmt.Sprintf(`{"q":%q,"limit":5,"finsh":{}}`, query)))
	f.Add([]byte(fmt.Sprintf(`{"q":%q,"limit":5}}`, query)))
	f.Add([]byte(fmt.Sprintf(`{"q":%q,"limit":5} {"q":%q,"limit":5}`, query, query)))
	f.Fuzz(func(t *testing.T, body []byte) {
		var page ShardSearchResponse
		fuzzPost(t, srv, panics, "/shard/search", body, &page)
		for i := 1; i < len(page.Results); i++ {
			if !search.WorseResult(page.Results[i], page.Results[i-1]) {
				t.Fatalf("rows %d and %d out of order for %q: %+v", i-1, i, body, page.Results)
			}
		}
	})
}

// FuzzParseSearchParams: a raw /search query string either parses into
// options inside the documented bounds, with nothing written, or is
// answered with a 400.
func FuzzParseSearchParams(f *testing.F) {
	for _, s := range []string{
		"q=dna+repair&limit=10&offset=20&threshold=0.1&boolean=1",
		"q=+++&limit=1",
		"q=x&limit=1001",
		"q=x&offset=100001",
		"q=x&threshold=NaN",
		"q=x&limit=9223372036854775808",
		"q=%zz&limit=-0",
		"q=x;limit=2&&=&boolean=true",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		rec := httptest.NewRecorder()
		p, ok := parseSearchParams(rec, &http.Request{Method: "GET", URL: &url.URL{Path: "/search", RawQuery: raw}})
		if !ok {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%q rejected with %d", raw, rec.Code)
			}
			return
		}
		if rec.Body.Len() > 0 {
			t.Fatalf("%q accepted, yet a response was written: %s", raw, rec.Body)
		}
		if p.q == "" || p.q != strings.TrimSpace(p.q) ||
			p.opts.Limit < 1 || p.opts.Limit > MaxLimit ||
			p.opts.Offset < 0 || p.opts.Offset > MaxOffset ||
			!(p.opts.Threshold >= 0 && p.opts.Threshold <= 1) {
			t.Fatalf("%q accepted out of bounds: %+v", raw, p)
		}
	})
}
