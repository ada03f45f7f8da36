package search

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// goldenQueries builds a seeded query battery from the fixture's own
// context vocabulary: exact term names, cross-context word mixes, and a few
// fixed phrasings. Every query exercises the full pipeline (selection →
// per-context scoring → merge).
func goldenQueries(f *fixture) []string {
	var names []string
	for _, ctx := range f.scores.Contexts() {
		if t := f.onto.Term(ctx); t != nil {
			names = append(names, t.Name)
		}
		if len(names) >= 12 {
			break
		}
	}
	queries := append([]string(nil), names...)
	// Cross-context mixes: words of two names interleaved select several
	// partially matching contexts at once.
	for i := 0; i+1 < len(names); i += 2 {
		queries = append(queries, names[i]+" "+names[i+1])
	}
	queries = append(queries,
		"regulation of rna protein binding",
		"transport activity complex formation",
		"qqqzzz unknown words", // selects nothing: both paths must agree on nil
	)
	return queries
}

// goldenOptions is the option matrix the battery runs under.
func goldenOptions() []Options {
	return []Options{
		{},
		{MaxContexts: 1},
		{MaxContexts: 4, MinContextMatch: 0.01},
		{MaxContexts: 8, MinContextMatch: 0.01},
		{Threshold: 0.25},
		{Threshold: 0.1, MaxContexts: 6, MinContextMatch: 0.05},
		{Limit: 5},
		{Offset: 3, Limit: 4, MaxContexts: 8, MinContextMatch: 0.01},
		{Offset: 1000}, // past the end: both paths must return an empty page
	}
}

func diffResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: optimized returned %d results, naive %d\ngot:  %v\nwant: %v",
			label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d differs\ngot:  %+v\nwant: %+v", label, i, got[i], want[i])
		}
	}
}

// TestSearchGoldenEquality asserts the optimized single-pass Search returns
// exactly the same results — documents, scores bit for bit, and maximising
// contexts — as the retained naive per-context reference, across the
// seeded query battery and the full option matrix.
func TestSearchGoldenEquality(t *testing.T) {
	f := buildFixture(t)
	for qi, q := range goldenQueries(f) {
		for oi, opts := range goldenOptions() {
			label := fmt.Sprintf("query %d %q / opts %d %+v", qi, q, oi, opts)
			diffResults(t, label, f.engine.Search(q, opts), f.engine.searchNaive(q, opts))
		}
	}
}

// TestSearchBooleanGoldenEquality is the boolean-query counterpart,
// covering AND/OR/NOT, phrases and field-scoped terms.
func TestSearchBooleanGoldenEquality(t *testing.T) {
	f := buildFixture(t)
	var names []string
	for _, ctx := range f.scores.Contexts() {
		if t := f.onto.Term(ctx); t != nil && len(strings.Fields(t.Name)) >= 2 {
			names = append(names, t.Name)
		}
		if len(names) >= 6 {
			break
		}
	}
	if len(names) < 2 {
		t.Fatal("fixture has too few multi-word context names")
	}
	w := func(n, i int) string { return strings.Fields(names[n])[i] }
	queries := []string{
		w(0, 0) + " AND " + w(0, 1),
		w(0, 0) + " OR " + w(1, 0),
		"(" + w(0, 0) + " OR " + w(1, 0) + ") AND " + w(0, 1),
		w(0, 0) + " AND NOT " + w(1, 1),
		`"` + names[0] + `"`,
		"title:" + w(0, 0) + " " + w(0, 1),
	}
	for qi, q := range queries {
		for oi, opts := range goldenOptions() {
			label := fmt.Sprintf("boolean query %d %q / opts %d %+v", qi, q, oi, opts)
			got, gotErr := f.engine.SearchBoolean(q, opts)
			want, wantErr := f.engine.searchBooleanNaive(q, opts)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: error mismatch: optimized %v, naive %v", label, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			diffResults(t, label, got, want)
		}
	}
}

// TestSearchConcurrent hammers one engine from many goroutines — the
// accumulator pool, the bitset cache and the per-context worker pool must
// all be safe under concurrent queries (run with -race) and every
// goroutine must see identical results.
func TestSearchConcurrent(t *testing.T) {
	f := buildFixture(t)
	queries := goldenQueries(f)
	opts := Options{MaxContexts: 8, MinContextMatch: 0.01}
	want := make([][]Result, len(queries))
	for i, q := range queries {
		want[i] = f.engine.Search(q, opts)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				i := (g + rep) % len(queries)
				got := f.engine.Search(queries[i], opts)
				if len(got) != len(want[i]) {
					errs <- fmt.Sprintf("goroutine %d: query %q returned %d results, want %d", g, queries[i], len(got), len(want[i]))
					return
				}
				for j := range got {
					if got[j] != want[i][j] {
						errs <- fmt.Sprintf("goroutine %d: query %q result %d differs", g, queries[i], j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
