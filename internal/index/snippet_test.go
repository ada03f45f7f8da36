package index

import (
	"maps"
	"slices"
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

// TestSnippetHighlightsNonASCIIWords: a query word with a byte ≥ 0x80, which
// the tokenizer keeps as a term, highlights in a paper's text — behind
// punctuation, in upper case, and where lowercasing changes a word's first
// byte ("Ё" to "ё") or its length (the Kelvin sign to "k") — as an ASCII
// word does, and as the reference does.
func TestSnippetHighlightsNonASCIIWords(t *testing.T) {
	c, err := corpus.NewCorpus([]*corpus.Paper{{
		ID:       0,
		Title:    "wnt signalling",
		Abstract: "Wnt signalling stabilises β-catenin in the café assay at (Ångström) resolution, near Ёлка, at 4 \u212Aelvin, along the pathway.",
		Body:     "no further text",
		Authors:  []string{"a b"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ix := must(BuildWorkers(corpus.NewAnalyzerWorkers(c, 0), 0))
	for query, want := range map[string]string{
		"β-catenin": "[β-catenin]",
		"café":      "[café]",
		"Ångström":  "[(Ångström)]",
		"ёлка":      "[Ёлка,]",
		"kelvin":    "[\u212Aelvin,]",
		"pathway":   "[pathway.]",
	} {
		got := ix.Snippet(0, query, SnippetOptions{})
		if !strings.Contains(got, want) {
			t.Errorf("Snippet(%q) = %q, want it to hold %q", query, got, want)
		}
		if ref, _ := snippetRef(ix, 0, query, SnippetOptions{}); got != ref {
			t.Errorf("Snippet(%q) = %q; reference %q", query, got, ref)
		}
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
		if got := strings.ToLower(trimWord(in)); got != want {
			t.Errorf("trimWord(%q) lowercased = %q, want %q", in, got, want)
		}
	}
}

// tableWords returns the index's word table as a map.
func tableWords(ix *Index) map[string]wordStems {
	m := map[string]wordStems{}
	ix.words.m.Range(func(w, e any) bool {
		m[w.(string)] = *e.(*wordStems)
		return true
	})
	return m
}

// addPassing adds to into the distinct trimmed raw words of text that pass
// the prefilter of a query with these stems: each normalised word begins
// with the first byte of some stem and is no shorter than the shortest one.
func addPassing(into map[string]bool, stems []string, text string) {
	if len(stems) == 0 {
		return
	}
	minLen := len(stems[0])
	for _, st := range stems {
		minLen = min(minLen, len(st))
	}
	for _, w := range strings.Fields(text) {
		norm := normalizeWord(w)
		if norm == "" || len(norm) < minLen {
			continue
		}
		for _, st := range stems {
			if st[0] == norm[0] {
				into[trimRef(w)] = true
				break
			}
		}
	}
}

// checkEntry fails unless e holds the normalised form of the trimmed raw
// word w and that form's Porter stem, from a fresh stemmer.
func checkEntry(t *testing.T, w string, e wordStems, ok bool) {
	t.Helper()
	norm := strings.ToLower(w)
	if stem := textproc.NewPorterStemmer().Stem(norm); !ok || e != (wordStems{norm, stem}) {
		t.Fatalf("word table entry for %q: %+v, %v; want %q stemming to %q", w, e, ok, norm, stem)
	}
}

// TestSnippetStemMemoIsCorpusBounded: the word table holds exactly the
// distinct trimmed raw words of the paper text that passed some query's
// prefilter while rendering, each with its normalised form and Porter stem,
// so it is a subset of the paper text's words, and no query word ever
// enters it.
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
	want := map[string]bool{}
	// renderAll renders every paper's snippet for query, through one
	// Snippeter as a page does, and adds to want what each render's scan
	// passed: the abstract always, the body unless the abstract matched.
	renderAll := func(query string) {
		stems := ix.analyzer.Tokenizer().Terms(query)
		sn := ix.Snippeter(stems, SnippetOptions{})
		for doc := range corpus.PaperID(c.Len()) {
			sn.Snippet(doc)
			p := c.Paper(doc)
			addPassing(want, stems, p.Abstract)
			if _, src := snippetRef(ix, doc, query, SnippetOptions{}); src != "abstract" {
				addPassing(want, stems, p.Body)
			}
		}
		got := tableWords(ix)
		if !maps.EqualFunc(got, want, func(wordStems, bool) bool { return true }) {
			t.Fatalf("after query %q the word table holds %d words, the renders passed %d", query, len(got), len(want))
		}
	}
	// Nothing to match: no text is scanned.
	for _, q := range []string{"", "the of and", "!!"} {
		renderAll(q)
		if n := len(tableWords(ix)); n != 0 {
			t.Fatalf("query %q left %d words in the word table", q, n)
		}
	}
	// Unseen words match nothing, so every abstract and body is scanned,
	// but only the words that begin with "p" or "r" and are at least six
	// bytes long pass.
	renderAll("pzzzzz Rqqqqq")
	if len(want) == 0 {
		t.Fatal("no word of the paper text passed the prefilter of \"pzzzzz Rqqqqq\"")
	}
	// More unseen words, and names that match.
	queries := []string{"zzzunseen wordsneverwritten", "ÜBERUNSEEN café-naïve"}
	for _, id := range o.TermIDs()[:10] {
		queries = append(queries, o.Term(id).Name)
	}
	for _, q := range queries {
		renderAll(q)
	}
	all := map[string]bool{}
	for _, p := range c.Papers() {
		for _, w := range strings.Fields(p.Abstract + " " + p.Body) {
			if w := trimRef(w); w != "" {
				all[w] = true
			}
		}
	}
	got := tableWords(ix)
	for w, e := range got {
		if !all[w] {
			t.Fatalf("word table holds %q, which no paper's abstract or body has", w)
		}
		checkEntry(t, w, e, true)
	}
	if len(got) >= len(all) {
		t.Fatalf("word table holds %d words, every one of the paper text's %d: the prefilter passed them all", len(got), len(all))
	}
	t.Logf("word table %d of the paper text's %d distinct words", len(got), len(all))
}

// FuzzSnippet: over one index, whose word table every input shares, one
// Snippeter per query renders, as a page does, the input text, then every
// abstract of the test corpus, then the input text again, each as the
// reference does, for any query and window, and leaves each of the input
// text's words that passed its prefilter in the table with its normalised
// form and stem; it renders the test corpus's papers as the reference does,
// and leaves the query's terms it was built from as they were.
func FuzzSnippet(f *testing.F) {
	ix, c := buildTestIndex(f)
	f.Fuzz(func(t *testing.T, text, query string, window uint8) {
		stems := ix.analyzer.Tokenizer().Terms(query)
		queryStems := map[string]bool{}
		for _, term := range stems {
			queryStems[term] = true
		}
		opts := SnippetOptions{Window: 1 + int(window)%40, Pre: "**", Post: "**"}
		terms := slices.Clone(stems)
		sn := ix.Snippeter(terms, opts)
		texts := []string{text}
		for _, p := range c.Papers() {
			texts = append(texts, p.Abstract)
		}
		texts = append(texts, text)
		sc := new(snippetScratch)
		for _, text := range texts {
			got, ok := sn.snippetFrom(text, sc)
			want, wok := snippetFromRef(text, queryStems, opts)
			if got != want || ok != wok {
				t.Fatalf("snippetFrom(%q, %q) = %q, %v; reference %q, %v", text, query, got, ok, want, wok)
			}
		}
		for doc := range corpus.PaperID(c.Len()) {
			want, _ := snippetRef(ix, doc, query, opts)
			if got := sn.Snippet(doc); got != want {
				t.Fatalf("Snippet(%d, %q) = %q; reference %q", doc, query, got, want)
			}
		}
		if !slices.Equal(terms, stems) {
			t.Fatalf("the Snippeter of %q changed its terms %q to %q", query, stems, terms)
		}
		passed := map[string]bool{}
		addPassing(passed, stems, text)
		table := tableWords(ix)
		for w := range passed {
			e, ok := table[w]
			checkEntry(t, w, e, ok)
		}
	})
}
