// Package goldentest serves the spine batteries: the tests that hold every
// serving shape — the naive per-context reference, the eager engine, a
// state-file engine, range engines and their merged pages, and every HTTP
// backend — to the same ranking, bit for bit. It holds their one query and
// page generator, their one bitwise result comparator and the generated
// build the engine layers serve. It imports nothing from internal/search or
// above, so search's own tests can use it.
package goldentest

import (
	"math"
	"math/rand"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/prestige"
)

// Fixture is a generated ontology and corpus with their text-based build:
// the eager index, the text context set and its propagated text-prestige
// matrix.
type Fixture struct {
	Onto   *ontology.Ontology
	Corpus *corpus.Corpus
	Index  *index.Index
	Set    *contextset.ContextSet
	Matrix *prestige.Matrix
}

// NewFixture builds a Fixture over a 60-term ontology drawn from ontoSeed
// and a corpus drawn by gcfg.
func NewFixture(tb testing.TB, ontoSeed int64, gcfg corpus.GenConfig) *Fixture {
	tb.Helper()
	o, err := ontology.Generate(ontology.GenConfig{Seed: ontoSeed, NumTerms: 60, MaxDepth: 6, SecondParentProb: 0.1})
	if err != nil {
		tb.Fatal(err)
	}
	c, err := corpus.Generate(o, gcfg)
	if err != nil {
		tb.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	ix, err := index.BuildWorkers(a, 0)
	if err != nil {
		tb.Fatal(err)
	}
	cs := contextset.BuildTextBased(ix, o, 0)
	m := prestige.PropagateMax(o, prestige.Score(prestige.NewTextScorer(a), cs, 0, 1))
	return &Fixture{o, c, ix, cs, m}
}

// Query is one generated query: its text, and whether it is asked as a
// boolean expression.
type Query struct {
	Text    string
	Boolean bool
}

// Queries derives the query battery from the contexts a matrix scores, in
// its order, and their names in onto:
//   - vector: the first eight names, the words of two names mixed (which
//     selects several partially matching contexts at once), two generic
//     phrasings and a query of unknown words (which selects nothing);
//   - boolean, over the words of the first two multi-word names: AND, OR, a
//     parenthesised group, AND NOT, a leading NOT, a NOT without AND, a
//     phrase, title: and abstract: fields, OR with a generic word, and a
//     plain name, a mix and the unknown words parsed as expressions.
func Queries(tb testing.TB, onto *ontology.Ontology, ctxs []ontology.TermID) []Query {
	tb.Helper()
	var names, multi []string
	for _, ctx := range ctxs {
		name := onto.Term(ctx).Name
		if len(names) < 8 {
			names = append(names, name)
		}
		if len(multi) < 2 && len(strings.Fields(name)) >= 2 {
			multi = append(multi, name)
		}
	}
	if len(names) < 2 || len(multi) < 2 {
		tb.Fatalf("goldentest: %d context names, %d of them multi-word; want 2 and 2", len(names), len(multi))
	}
	var qs []Query
	add := func(boolean bool, texts ...string) {
		for _, s := range texts {
			qs = append(qs, Query{s, boolean})
		}
	}
	add(false, names...)
	for i := 0; i+1 < len(names); i += 2 {
		add(false, names[i]+" "+names[i+1])
	}
	const unknown = "qqqzzz unknown words"
	add(false, "regulation of rna protein binding", "transport activity complex formation", unknown)
	a, b := strings.Fields(multi[0]), strings.Fields(multi[1])
	add(true,
		a[0]+" AND "+a[1],
		a[0]+" OR "+b[0],
		"("+a[0]+" OR "+b[0]+") AND "+a[1],
		a[0]+" AND NOT "+b[1],
		"NOT qqqzzz "+multi[0],
		names[0]+" NOT "+names[1],
		`"`+multi[0]+`"`,
		"title:"+a[0]+" "+a[1],
		a[0]+" AND NOT abstract:"+a[1],
		names[0]+" OR transport",
		names[0],
		names[0]+" "+names[1],
		unknown,
	)
	return qs
}

// Kind returns the queries in qs that are boolean, or those that are not.
func Kind(qs []Query, boolean bool) []Query {
	var out []Query
	for _, q := range qs {
		if q.Boolean == boolean {
			out = append(out, q)
		}
	}
	return out
}

// Page is one generated page. Its fields are search.Options' in order, so
// a battery converts one with search.Options(p).
type Page struct {
	Threshold       float64
	Limit           int
	Offset          int
	MaxContexts     int
	MinContextMatch float64
}

// Pages returns the page battery: Edges, then Drawn(seed, n).
func Pages(seed int64, n int) []Page {
	return append(Edges(), Drawn(seed, n)...)
}

// Edges returns the edge pages every battery meets: the unlimited page,
// one context, a 0.05 context match, thresholds, a first page, an inner
// page and the page past the end.
func Edges() []Page {
	return []Page{
		{},
		{MaxContexts: 1},
		{MaxContexts: 4, MinContextMatch: 0.01},
		{MaxContexts: 8, MinContextMatch: 0.01},
		{Threshold: 0.25},
		{Threshold: 0.1, Limit: 10, MaxContexts: 6, MinContextMatch: 0.05},
		{Limit: 5},
		{Offset: 3, Limit: 4, MaxContexts: 8, MinContextMatch: 0.01},
		{Offset: 1000},
	}
}

// Drawn returns n pages drawn from seed, whose limit, offset, threshold and
// context cap vary.
func Drawn(seed int64, n int) []Page {
	var pages []Page
	rng := rand.New(rand.NewSource(seed))
	for range n {
		p := Page{Limit: 1 + rng.Intn(20), MaxContexts: 1 + rng.Intn(8), MinContextMatch: 0.01}
		if rng.Intn(2) == 0 {
			p.Offset = rng.Intn(15)
		}
		if rng.Intn(3) == 0 {
			p.Threshold = rng.Float64() * 0.4
		}
		pages = append(pages, p)
	}
	return pages
}

// Params renders q on page p as a /search query string. HTTP has no
// context cap or context match, and an absent limit asks for the server's
// default page, so those fields are not sent.
func (p Page) Params(q Query) string {
	s := "q=" + url.QueryEscape(q.Text)
	if p.Limit > 0 {
		s += "&limit=" + strconv.Itoa(p.Limit)
	}
	if p.Offset > 0 {
		s += "&offset=" + strconv.Itoa(p.Offset)
	}
	if p.Threshold > 0 {
		s += "&threshold=" + strconv.FormatFloat(p.Threshold, 'g', -1, 64)
	}
	if q.Boolean {
		s += "&boolean=1"
	}
	return s
}

// Same fails tb unless got and want hold the same rows in the same order,
// field by field: a float64 by math.Float64bits, where == would let +0 and
// −0 or two NaNs pass, and any other field with ==. For search.Result that
// is Doc, Context and the bits of Relevancy, Match and Prestige. A nil and
// an empty list are the same.
func Same[R any](tb testing.TB, label string, got, want []R) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d rows, want %d\ngot:  %+v\nwant: %+v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if !sameBits(reflect.ValueOf(got[i]), reflect.ValueOf(want[i])) {
			tb.Fatalf("%s: row %d differs\ngot:  %+v\nwant: %+v", label, i, got[i], want[i])
		}
	}
}

func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}
