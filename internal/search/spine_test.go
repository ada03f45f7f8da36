package search

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/goldentest"
	"ctxsearch/internal/index"
	"ctxsearch/internal/prestige"
)

// shape is one engine over a fixture's state, answering for the papers in
// [lo, hi).
type shape struct {
	name   string
	e      *Engine
	lo, hi int
}

// engineShapes returns the fixture's state as every shape that serves it:
// the eager engine (built index, built context set), an engine over
// state-file shapes (FromParts index on a frozen analyzer, FromFrozen context
// set with the score column bound over it) and the two SliceRange range
// engines.
func engineShapes(t *testing.T, f *fixture, w Weights) []shape {
	t.Helper()
	parts := f.Index.Parts()
	frozenIx, err := index.FromParts(corpus.NewAnalyzerFrozen(f.Corpus, f.Index.Analyzer().DF()), parts)
	if err != nil {
		t.Fatal(err)
	}
	frozenCS, err := contextset.FromFrozen(f.Onto, f.Set.Freeze())
	if err != nil {
		t.Fatal(err)
	}
	ctxs, vals := f.Matrix.Column()
	frozenMatrix, err := prestige.FromColumn(frozenCS, ctxs, vals)
	if err != nil {
		t.Fatal(err)
	}
	n := f.Corpus.Len()
	shapes := []shape{
		{"eager", NewEngine(f.Index, f.Matrix, w), 0, n},
		{"frozen", NewEngine(frozenIx, frozenMatrix, w), 0, n},
	}
	for i, r := range [][2]int{{0, n / 2}, {n / 2, n}} {
		ix, err := index.FromParts(f.Index.Analyzer(), parts.SliceRange(r[0], r[1]))
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, shape{fmt.Sprintf("range%d", i), NewEngine(ix, f.Matrix.Slice(r[0], r[1]), w), r[0], r[1]})
	}
	return shapes
}

// ask answers q on e: by the engine, or by naive.go's reference.
func ask(e *Engine, q goldentest.Query, opts Options, naive bool) ([]Result, error) {
	switch {
	case q.Boolean && naive:
		return e.searchBooleanNaive(q.Text, opts)
	case q.Boolean:
		return e.SearchBooleanContext(context.Background(), q.Text, opts)
	case naive:
		return e.searchNaive(q.Text, opts), nil
	}
	return e.Search(q.Text, opts), nil
}

// The engine layer of the spine battery: naive.go's per-context reference
// over the eager build against the eager, the state-file and the two range
// engines, bit for bit, on generated queries and pages. Five entry points
// split the work: the shared fixture's vector and boolean queries on the
// edge pages and on the drawn pages, and corpus seeds 6, 11 and 23 on every
// query and page.

// TestSearchGoldenEquality: the shared fixture's vector queries, edge pages.
func TestSearchGoldenEquality(t *testing.T) {
	spineEngine(t, buildFixture(t), 0, false, goldentest.Edges())
}

// TestSearchBooleanGoldenEquality: its boolean queries, edge pages.
func TestSearchBooleanGoldenEquality(t *testing.T) {
	spineEngine(t, buildFixture(t), 0, true, goldentest.Edges())
}

// TestSearchTopKGoldenEquality: its vector queries, drawn pages.
func TestSearchTopKGoldenEquality(t *testing.T) {
	spineEngine(t, buildFixture(t), 0, false, goldentest.Drawn(0, 6))
}

// TestSearchBooleanTopKGoldenEquality: its boolean queries, drawn pages.
func TestSearchBooleanTopKGoldenEquality(t *testing.T) {
	spineEngine(t, buildFixture(t), 0, true, goldentest.Drawn(0, 6))
}

// TestDifferentialAgainstNaive: corpus seeds 6, 11 and 23, every generated
// query and page.
func TestDifferentialAgainstNaive(t *testing.T) {
	for fi, seed := range []int64{6, 11, 23} {
		gcfg := corpus.DefaultGenConfig(250)
		gcfg.Seed = seed
		f := newFixture(t, seed, gcfg)
		pages := goldentest.Pages(int64(fi+1), 6)
		spineEngine(t, f, fi+1, false, pages)
		spineEngine(t, f, fi+1, true, pages)
	}
}

// spineEngine holds every shape of fixture fi to naive.go's reference on
// the generated queries of one kind (vector or boolean) and pages, with
// context weighting on and off, and with prestige alone, whose bit-equal
// relevancies hold the tie rule to the reference's. A range engine's page
// is the reference's whole list restricted to the range's papers, then
// paged.
func spineEngine(t *testing.T, f *fixture, fi int, boolean bool, pages []goldentest.Page) {
	t.Helper()
	queries := goldentest.Kind(goldentest.Queries(t, f.Onto, f.Matrix.Contexts()), boolean)
	for _, w := range []Weights{{Prestige: 0.5, Matching: 0.5, ContextWeighted: true}, {Prestige: 0.5, Matching: 0.5}, {Prestige: 1}} {
		shapes := engineShapes(t, f, w)
		for _, q := range queries {
			for _, p := range pages {
				opts, whole := Options(p), Options(p)
				whole.Limit, whole.Offset = 0, 0
				want, wantErr := ask(shapes[0].e, q, opts, true)
				all, _ := ask(shapes[0].e, q, whole, true)
				for _, s := range shapes {
					label := fmt.Sprintf("fixture %d %+v %s %+v %+v", fi, w, s.name, q, opts)
					got, err := ask(s.e, q, opts, false)
					if (err == nil) != (wantErr == nil) {
						t.Fatalf("%s: error %v, reference %v", label, err, wantErr)
					}
					if s.lo == 0 && s.hi == f.Corpus.Len() {
						goldentest.Same(t, label, got, want)
						continue
					}
					var in []Result
					for _, r := range all {
						if int(r.Doc) >= s.lo && int(r.Doc) < s.hi {
							in = append(in, r)
						}
					}
					goldentest.Same(t, label, got, Paginate(in, opts))
				}
			}
		}
	}
}

// TestPageContract: Page, on every shape and edge page, returns for each
// query of the battery — vector and boolean, unknown words among them — and
// for stopword-only atoms, the query's Tokenizer.Terms and the results
// SearchContext or SearchBooleanContext returns; a boolean query that does
// not parse returns the parse error, no results and no terms.
func TestPageContract(t *testing.T) {
	f := buildFixture(t)
	tok := f.Index.Analyzer().Tokenizer()
	name := f.Onto.Term(f.Matrix.Contexts()[0]).Name
	queries := append(goldentest.Queries(t, f.Onto, f.Matrix.Contexts()),
		goldentest.Query{Text: "the of and"},
		goldentest.Query{Text: "the AND " + name + " OR (of AND the)", Boolean: true},
		goldentest.Query{Text: "the of and", Boolean: true},
		goldentest.Query{Text: "(((", Boolean: true},
		goldentest.Query{Text: `"unclosed ` + name, Boolean: true},
	)
	parseErrs := 0
	for _, s := range engineShapes(t, f, DefaultWeights()) {
		for _, q := range queries {
			_, parseErr := s.e.ix.ParseQuery(q.Text)
			for _, p := range goldentest.Edges() {
				opts := Options(p)
				label := fmt.Sprintf("%s %+v %+v", s.name, q, opts)
				got, terms, err := s.e.Page(context.Background(), q.Text, q.Boolean, opts)
				if q.Boolean && parseErr != nil {
					parseErrs++
					if err == nil || err.Error() != parseErr.Error() || got != nil || terms != nil {
						t.Fatalf("%s: Page = %v, %q, %v; want no results, no terms and the parse error %v", label, got, terms, err, parseErr)
					}
					continue
				}
				if want := tok.Terms(q.Text); !slices.Equal(terms, want) {
					t.Fatalf("%s: Page's terms %q, Tokenizer.Terms %q", label, terms, want)
				}
				run := s.e.SearchContext
				if q.Boolean {
					run = s.e.SearchBooleanContext
				}
				want, wantErr := run(context.Background(), q.Text, opts)
				if err != nil || wantErr != nil {
					t.Fatalf("%s: Page error %v, search error %v", label, err, wantErr)
				}
				goldentest.Same(t, label, got, want)
			}
		}
	}
	if parseErrs == 0 {
		t.Fatal("no boolean query failed to parse")
	}
}
