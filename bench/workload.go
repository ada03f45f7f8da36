//go:build linux

package main

import (
	"math/rand"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/eval"
	"ctxsearch/internal/ontology"
)

// workloadDef names one workload and records why it exists; BENCHMARK.json
// repeats both.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"first_page", "one serve process, cache off, limit=10 vector queries: every layer from param parse to render runs, and render (index.Snippet) dominates"},
	{"hot_cache", "default cache, Zipf(1.1) keys over a key space 4x the cache: hits bypass engine and render, so cache, HTTP and logging work shows and singleflight is exercised"},
	{"boolean_page", "boolean=1 expressions on the first_page process: ParseQuery and the filter/phrase evaluator instead of the vector accumulator"},
	{"cluster_page", "coordinator over two shard processes, the identical request list as first_page: the difference isolates fan-out, JSON hop, page merge and duplicated rendering"},
	{"library_batch", "in-process Engine.SearchContext full ranked lists from 2 goroutines: no HTTP and no render, so an engine change moves it and a render or cache change must not"},
}

// request is one generated operation. Key indexes the distinct request in
// its workload's key space, so the oracle can look the expected page up.
type request struct {
	Query   string
	Limit   int
	Boolean bool
	Key     int
	Path    string
}

func newRequest(q string, limit int, boolean bool, key int) request {
	p := "/search?q=" + url.QueryEscape(q)
	if limit > 0 {
		p += "&limit=" + strconv.Itoa(limit)
	}
	if boolean {
		p += "&boolean=1"
	}
	return request{Query: q, Limit: limit, Boolean: boolean, Key: key, Path: p}
}

// Sizes of the generated inputs. The cache under test holds 1024 entries, so
// the hot_cache key space is 4x the cache.
const (
	minVocabulary   = 2048
	cacheKeySpace   = 4096
	requestListSize = 1 << 15
	zipfExponent    = 1.1
)

// rngFor derives an independent deterministic stream per purpose from the
// run's seed.
func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + stream))
}

func nameWords(name string) []string {
	return strings.Fields(strings.ToLower(name))
}

// vocabulary builds the distinct query strings the request lists draw from:
// the scored contexts' names, eval.GenerateQueries alias paraphrases of
// them, their sub-phrases, and — until want strings are usable — a
// sub-phrase of one name joined with a word of another. usable keeps only
// strings that select a context and return a row, so no generated request
// is an empty page. The result is shuffled by the seed.
func vocabulary(onto *ontology.Ontology, c *corpus.Corpus, names []string, seed int64, want int, usable func(string) bool) []string {
	seen := map[string]bool{}
	var out []string
	add := func(q string) {
		if q == "" || seen[q] {
			return
		}
		seen[q] = true
		if usable(q) {
			out = append(out, q)
		}
	}
	for _, n := range names {
		add(strings.ToLower(n))
	}
	for _, q := range eval.GenerateQueries(onto, c, eval.QueryGenConfig{
		Seed: seed, NumQueries: 4 * len(names), MinLevel: 2, ReplaceProb: 0.4,
	}) {
		add(q.Text)
	}
	var phrases []string
	for _, n := range names {
		ws := nameWords(n)
		for width := 2; width <= 3; width++ {
			for i := 0; i+width <= len(ws); i++ {
				p := strings.Join(ws[i:i+width], " ")
				phrases = append(phrases, p)
				add(p)
			}
		}
	}
	rng := rngFor(seed, 1)
	for tries := 0; len(out) < want && len(phrases) > 0 && tries < 50*want; tries++ {
		other := nameWords(names[rng.Intn(len(names))])
		add(phrases[rng.Intn(len(phrases))] + " " + other[len(other)-1])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// booleanExpressions builds boolean queries from the same names in the
// three shapes the issue lists: a AND b, "a b" OR c, a AND NOT d.
func booleanExpressions(names []string, seed int64, usable func(string) bool) []string {
	rng := rngFor(seed, 2)
	seen := map[string]bool{}
	var out []string
	add := func(q string) {
		if seen[q] {
			return
		}
		seen[q] = true
		if usable(q) {
			out = append(out, q)
		}
	}
	foreign := func(own []string) string {
		for tries := 0; tries < 16; tries++ {
			ws := nameWords(names[rng.Intn(len(names))])
			w := ws[rng.Intn(len(ws))]
			if !slices.Contains(own, w) {
				return w
			}
		}
		return ""
	}
	for round := 0; round < 3; round++ {
		for _, n := range names {
			ws := nameWords(n)
			if len(ws) < 2 {
				continue
			}
			i := rng.Intn(len(ws) - 1)
			add(ws[i] + " AND " + ws[len(ws)-1])
			if c := foreign(ws); c != "" {
				add(`"` + ws[i] + " " + ws[i+1] + `" OR ` + c)
			}
			if d := foreign(ws); d != "" {
				add(ws[len(ws)-1] + " AND NOT " + d)
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// uniformRequests draws n requests uniformly from queries, all with the
// same page size.
func uniformRequests(rng *rand.Rand, queries []string, n, limit int, boolean bool) []request {
	out := make([]request, n)
	for i := range out {
		k := rng.Intn(len(queries))
		out[i] = newRequest(queries[k], limit, boolean, k)
	}
	return out
}

// zipfRequests draws n requests Zipf(zipfExponent) from the key space
// (query x limit in {10,20}) — the power-law popularity Schaer reports for
// digital-library queries. Key 2i is query i at limit 10, key 2i+1 at 20;
// vocab is already shuffled, so popularity is independent of how a string
// was generated.
func zipfRequests(rng *rand.Rand, vocab []string, n int) []request {
	keys := 2 * len(vocab)
	if keys > cacheKeySpace {
		keys = cacheKeySpace
	}
	z := rand.NewZipf(rng, zipfExponent, 1, uint64(keys-1))
	out := make([]request, n)
	for i := range out {
		k := int(z.Uint64())
		out[i] = newRequest(vocab[k/2], 10+10*(k%2), false, k)
	}
	return out
}

// libraryRequests is one pass over the vocabulary asking for the full
// ranked list (limit 0), the call eval.PrecisionCurve makes.
func libraryRequests(vocab []string) []request {
	out := make([]request, len(vocab))
	for i, q := range vocab {
		out[i] = newRequest(q, 0, false, i)
	}
	return out
}

// requestsFor generates a workload's request list from the seed.
// first_page and cluster_page share one stream, so their lists are
// identical.
func requestsFor(workload string, seed int64, vocab, exprs []string) []request {
	switch workload {
	case "first_page", "cluster_page":
		return uniformRequests(rngFor(seed, 3), vocab, requestListSize, 10, false)
	case "hot_cache":
		return zipfRequests(rngFor(seed, 4), vocab, requestListSize)
	case "boolean_page":
		return uniformRequests(rngFor(seed, 5), exprs, requestListSize, 10, true)
	default:
		return libraryRequests(vocab)
	}
}
