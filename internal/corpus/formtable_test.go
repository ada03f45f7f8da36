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

// frozenTiny returns an eager analysis of tinyCorpus and a frozen analyzer
// over its dictionary, whose surface-form table is the one that outlives
// construction: the eager build's are per worker and dropped.
func frozenTiny(tb testing.TB) (eager, frozen *corpus.Analyzer) {
	tb.Helper()
	eager = corpus.NewAnalyzerWorkers(tinyCorpus(tb), 0)
	return eager, corpus.NewAnalyzerFrozen(eager.Corpus(), eager.DF())
}

// TestSurfaceFormTableIsCorpusBounded pins the table's growth rule: only
// paper text fills it, so once every paper's tokens are filled no query
// string — through query weighting, the boolean parser or snippet rendering
// — can add an entry.
func TestSurfaceFormTableIsCorpusBounded(t *testing.T) {
	eager, a := frozenTiny(t)
	c := a.Corpus()
	ix, err := index.FromParts(a, index.BuildWorkers(eager, 0).Parts())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Papers() {
		a.Tokens(p.ID)
	}
	before := a.SurfaceForms()
	if before == 0 {
		t.Fatal("filling every paper's tokens recorded no surface forms")
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

// FuzzTokenizeTable checks that resolving a text's words through a
// surface-form table yields exactly Tokenizer.Terms, whatever the table
// already holds from earlier inputs: through a build worker's table, which
// numbers tokens as it first meets them, and through a frozen analyzer's,
// which resolves them to dictionary IDs ("" for a token outside it).
func FuzzTokenizeTable(f *testing.F) {
	for _, s := range []string{
		"The regulation of RNA-binding activities",
		"co-citation text-based a-1 1-a double--hyphen -x- I II iii",
		"naïve Ångström β-catenin 5′-UTR",
		"\xff\xfeinvalid\x80bytes and the THE The",
	} {
		f.Add(s)
	}
	_, a := frozenTiny(f)
	firstSeen := corpus.FirstSeenTerms(a.Tokenizer())
	f.Fuzz(func(t *testing.T, text string) {
		want := a.Tokenizer().Terms(text)
		if got := firstSeen(text); !slices.Equal(got, want) {
			t.Fatalf("worker table tokens %q, tokenizer %q for %q", got, want, text)
		}
		inDict := make([]string, len(want))
		for i, term := range want {
			if _, ok := a.DF().ID(term); ok {
				inDict[i] = term
			}
		}
		if got := a.TableTerms(text); !slices.Equal(got, inDict) {
			t.Fatalf("frozen table tokens %q, tokenizer %q within the dictionary, for %q", got, inDict, text)
		}
	})
}
