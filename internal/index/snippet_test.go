package index

import (
	"maps"
	"strings"
	"testing"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/textproc"
)

func TestSnippetHighlightsMatches(t *testing.T) {
	ix, _ := buildTestIndex(t)
	// Paper 0's abstract: "transcription of rna by polymerase enzymes".
	s := ix.Snippet(0, "rna polymerase", SnippetOptions{})
	if !strings.Contains(s, "[rna]") || !strings.Contains(s, "[polymerase]") {
		t.Fatalf("snippet missing highlights: %q", s)
	}
}

func TestSnippetStemAware(t *testing.T) {
	ix, _ := buildTestIndex(t)
	// Query "enzyme" must highlight "enzymes" in paper 0's abstract.
	s := ix.Snippet(0, "enzyme", SnippetOptions{})
	if !strings.Contains(s, "[enzymes]") {
		t.Fatalf("stem-aware highlight failed: %q", s)
	}
}

func TestSnippetFallsBackToBody(t *testing.T) {
	ix, _ := buildTestIndex(t)
	// "spliceosome" appears only in paper 2's body.
	s := ix.Snippet(2, "spliceosome", SnippetOptions{})
	if !strings.Contains(s, "[spliceosome]") {
		t.Fatalf("body fallback failed: %q", s)
	}
}

func TestSnippetNoMatchFallsBackToAbstractHead(t *testing.T) {
	ix, _ := buildTestIndex(t)
	s := ix.Snippet(3, "quantum chromodynamics", SnippetOptions{Window: 3})
	if s == "" || strings.Contains(s, "[") {
		t.Fatalf("fallback snippet wrong: %q", s)
	}
}

func TestSnippetWindowTruncation(t *testing.T) {
	ix, _ := buildTestIndex(t)
	s := ix.Snippet(0, "polymerase", SnippetOptions{Window: 3})
	words := strings.Fields(strings.Trim(s, "… "))
	// window words plus possible ellipses
	if len(words) > 5 {
		t.Fatalf("window not respected: %q", s)
	}
}

func TestSnippetCustomMarkers(t *testing.T) {
	ix, _ := buildTestIndex(t)
	s := ix.Snippet(0, "rna", SnippetOptions{Pre: "<b>", Post: "</b>"})
	if !strings.Contains(s, "<b>rna</b>") {
		t.Fatalf("custom markers missing: %q", s)
	}
}

func TestSnippetUnknownDoc(t *testing.T) {
	ix, _ := buildTestIndex(t)
	if s := ix.Snippet(99, "rna", SnippetOptions{}); s != "" {
		t.Fatalf("unknown doc snippet = %q", s)
	}
}

func TestNormalizeWord(t *testing.T) {
	cases := map[string]string{
		"(RNA)":   "rna",
		"end.":    "end",
		"--":      "",
		"a,b":     "a,b", // interior punctuation is kept; only edges strip
		"'quote'": "quote",
	}
	for in, want := range cases {
		if got := normalizeWord(in); got != want {
			t.Errorf("normalizeWord(%q) = %q, want %q", in, got, want)
		}
	}
}

// memoWords returns the index's stem memo as a map.
func memoWords(ix *Index) map[string]string {
	m := map[string]string{}
	ix.stems.Range(func(k, v any) bool {
		m[k.(string)] = v.(string)
		return true
	})
	return m
}

// TestSnippetStemMemoIsCorpusBounded: queries never put their own words in
// the stem memo, and once every paper has rendered its abstract and body
// the memo holds exactly the distinct non-empty normalised words of those
// texts, each with its Porter stem.
func TestSnippetStemMemoIsCorpusBounded(t *testing.T) {
	o, err := ontology.Generate(ontology.GenConfig{Seed: 5, NumTerms: 40, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(120))
	if err != nil {
		t.Fatal(err)
	}
	ix := must(BuildWorkers(corpus.NewAnalyzerWorkers(c, 0), 0))
	renderAll := func(query string) {
		for doc := range corpus.PaperID(c.Len()) {
			ix.Snippet(doc, query, SnippetOptions{})
		}
	}
	// Nothing to match: no text is scanned.
	for _, q := range []string{"", "the of and", "!!"} {
		renderAll(q)
		if n := len(memoWords(ix)); n != 0 {
			t.Fatalf("query %q left %d words in the memo", q, n)
		}
	}
	// Unseen words match nothing, so every abstract and body is scanned.
	renderAll("qqqzzz Xylophonic")
	want := map[string]bool{}
	for _, p := range c.Papers() {
		for _, text := range []string{p.Abstract, p.Body} {
			for _, w := range strings.Fields(text) {
				if norm := normalizeWord(w); norm != "" {
					want[norm] = true
				}
			}
		}
	}
	got := memoWords(ix)
	if !maps.EqualFunc(got, want, func(string, bool) bool { return true }) {
		t.Fatalf("memo holds %d words, the paper text has %d distinct ones", len(got), len(want))
	}
	stemmer := textproc.NewPorterStemmer()
	for norm, stem := range got {
		if want := stemmer.Stem(norm); stem != want {
			t.Fatalf("memo stems %q to %q, the stemmer to %q", norm, stem, want)
		}
	}
	// More unseen words, and names that match, add nothing.
	queries := []string{"zzzunseen wordsneverwritten", "ÜBERUNSEEN café-naïve"}
	for _, id := range o.TermIDs()[:10] {
		queries = append(queries, o.Term(id).Name)
	}
	for _, q := range queries {
		renderAll(q)
		if n := len(memoWords(ix)); n != len(want) {
			t.Fatalf("query %q grew the memo from %d to %d words", q, len(want), n)
		}
	}
}

// FuzzSnippet: over one index, whose stem memo every input shares,
// snippetFrom renders any text as the reference does, for any query and
// window, and leaves each of the text's words in the memo with its stem;
// Snippet renders the test corpus's papers as the reference does.
func FuzzSnippet(f *testing.F) {
	ix, c := buildTestIndex(f)
	stemmer := textproc.NewPorterStemmer()
	f.Fuzz(func(t *testing.T, text, query string, window uint8) {
		queryStems := map[string]bool{}
		for _, term := range ix.analyzer.Tokenizer().Terms(query) {
			queryStems[term] = true
		}
		opts := SnippetOptions{Window: 1 + int(window)%40, Pre: "**", Post: "**"}
		got, ok := ix.snippetFrom(text, queryStems, opts)
		want, wok := snippetFromRef(text, queryStems, opts)
		if got != want || ok != wok {
			t.Fatalf("snippetFrom(%q, %q) = %q, %v; reference %q, %v", text, query, got, ok, want, wok)
		}
		for doc := range corpus.PaperID(c.Len()) {
			want, _ := snippetRef(ix, doc, query, opts)
			if got := ix.Snippet(doc, query, opts); got != want {
				t.Fatalf("Snippet(%d, %q) = %q; reference %q", doc, query, got, want)
			}
		}
		if len(queryStems) == 0 {
			return
		}
		for _, w := range strings.Fields(text) {
			norm := normalizeWord(w)
			if norm == "" {
				continue
			}
			v, ok := ix.stems.Load(norm)
			if !ok || v.(string) != stemmer.Stem(norm) {
				t.Fatalf("memo entry for %q: %v, %v; the stemmer gives %q", norm, v, ok, stemmer.Stem(norm))
			}
		}
	})
}
