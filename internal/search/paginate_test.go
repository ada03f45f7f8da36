package search

import (
	"testing"

	"ctxsearch/internal/corpus"
)

// TestPaginate pins the page-slicing contract: an offset at or past the
// end is an empty non-nil page, a limit past the remainder returns just
// the remainder, and in-range pages slice exactly.
func TestPaginate(t *testing.T) {
	results := func(n int) []Result {
		out := make([]Result, n)
		for i := range out {
			out[i] = Result{Doc: corpus.PaperID(i)}
		}
		return out
	}
	tests := []struct {
		name    string
		in      []Result
		opts    Options
		want    []corpus.PaperID
		nonNil  bool
		aliases bool // page must alias the input (no copy on the hot path)
	}{
		{name: "no paging", in: results(3), opts: Options{}, want: []corpus.PaperID{0, 1, 2}, aliases: true},
		{name: "limit only", in: results(5), opts: Options{Limit: 2}, want: []corpus.PaperID{0, 1}, aliases: true},
		{name: "offset only", in: results(4), opts: Options{Offset: 1}, want: []corpus.PaperID{1, 2, 3}, aliases: true},
		{name: "offset and limit", in: results(6), opts: Options{Offset: 2, Limit: 2}, want: []corpus.PaperID{2, 3}, aliases: true},
		{name: "limit past remainder", in: results(4), opts: Options{Offset: 2, Limit: 100}, want: []corpus.PaperID{2, 3}, aliases: true},
		{name: "limit exceeds all", in: results(3), opts: Options{Limit: 100}, want: []corpus.PaperID{0, 1, 2}, aliases: true},
		{name: "offset equals length", in: results(3), opts: Options{Offset: 3}, want: nil, nonNil: true},
		{name: "offset past length", in: results(3), opts: Options{Offset: 7, Limit: 5}, want: nil, nonNil: true},
		{name: "offset past empty", in: results(0), opts: Options{Offset: 1}, want: nil, nonNil: true},
		{name: "empty no paging", in: results(0), opts: Options{}, want: nil},
	}
	for _, tc := range tests {
		got := Paginate(tc.in, tc.opts)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: got %d results, want %d", tc.name, len(got), len(tc.want))
		}
		for i, d := range tc.want {
			if got[i].Doc != d {
				t.Fatalf("%s: result %d = doc %d, want %d", tc.name, i, got[i].Doc, d)
			}
		}
		if tc.nonNil && got == nil {
			t.Fatalf("%s: page is nil, want empty non-nil", tc.name)
		}
		if tc.aliases && len(got) > 0 && &got[0] != &tc.in[tc.opts.Offset] {
			t.Fatalf("%s: page copied instead of sliced", tc.name)
		}
	}
}
