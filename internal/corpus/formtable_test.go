package corpus_test

import (
	"math/rand"
	"slices"
	"testing"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
)

// tinyCorpus is three short papers: enough text to fill the surface-form
// table, little enough that rendering 10 000 snippets is quick.
func tinyCorpus(tb testing.TB) *corpus.Corpus {
	tb.Helper()
	c, err := corpus.NewCorpus([]*corpus.Paper{
		{ID: 0, Title: "Regulation of RNA-binding proteins", Abstract: "The binding of co-factors is regulated by phosphorylation.", Body: "Kinases regulate the RNA-binding activities; binding was measured in 12 assays."},
		{ID: 1, Title: "Citation analysis", Abstract: "Co-citation and text-based scores rank papers.", Body: "Ranking functions were evaluated on 72027 papers."},
		{ID: 2, Title: "β-catenin signalling", Abstract: "Naïve cells and the 5′-UTR.", Body: "Ångström-scale structures of β-catenin."},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestSurfaceFormTableIsCorpusBounded pins the table's growth rule: only
// paper text fills it, so once every paper is analysed no query string —
// through query weighting, the boolean parser or snippet rendering — can add
// an entry.
func TestSurfaceFormTableIsCorpusBounded(t *testing.T) {
	c := tinyCorpus(t)
	a := corpus.NewAnalyzerWorkers(c, 0)
	ix := index.BuildWorkers(a, 0)
	before := a.SurfaceForms()
	if before == 0 {
		t.Fatal("analysis recorded no surface forms")
	}
	rng := rand.New(rand.NewSource(12))
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFXYZ0123456789-:\"() é"
	for i := 0; i < 10000; i++ {
		b := make([]byte, 1+rng.Intn(40))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		q := string(b)
		a.QueryVector(q)
		_, _ = ix.ParseQuery(q) // most random strings are malformed; the parser tokenizes what it can
		ix.Snippet(corpus.PaperID(i%c.Len()), q, index.SnippetOptions{})
	}
	if after := a.SurfaceForms(); after != before {
		t.Fatalf("surface-form table grew from %d to %d entries on query strings", before, after)
	}
}

// FuzzTokenizeTable checks that resolving a text's words through the
// surface-form table yields exactly Tokenizer.Terms, whatever the table
// already holds from earlier inputs.
func FuzzTokenizeTable(f *testing.F) {
	for _, s := range []string{
		"The regulation of RNA-binding activities",
		"co-citation text-based a-1 1-a double--hyphen -x- I II iii",
		"naïve Ångström β-catenin 5′-UTR",
		"\xff\xfeinvalid\x80bytes and the THE The",
	} {
		f.Add(s)
	}
	a := corpus.NewAnalyzerWorkers(tinyCorpus(f), 0)
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := a.TableTerms(text), a.Tokenizer().Terms(text); !slices.Equal(got, want) {
			t.Fatalf("table tokens %q, tokenizer %q for %q", got, want, text)
		}
	})
}
