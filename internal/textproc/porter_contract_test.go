package textproc_test

import (
	"strings"
	"testing"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/textproc"
)

// checkStemContract fails t unless Stem(w) is empty or begins with w's first
// byte, and is no longer than w: the contract PorterStemmer.Stem documents.
func checkStemContract(t *testing.T, ps *textproc.PorterStemmer, w string) {
	t.Helper()
	s := ps.Stem(w)
	if len(s) > len(w) {
		t.Fatalf("Stem(%q) = %q lengthens the word", w, s)
	}
	if s != "" && s[0] != w[0] {
		t.Fatalf("Stem(%q) = %q changes the first byte", w, s)
	}
}

// FuzzPorterStem: the stem contract holds for any string, also invalid
// UTF-8.
func FuzzPorterStem(f *testing.F) {
	for _, w := range []string{"", "a", "ys", "yyy", "ies", "eed", "ing", "agreed", "generalizations",
		"ontological", "relational", "hopefulness", "naïve", "co-citation", "GENE", "p53a", "\xffies"} {
		f.Add(w)
	}
	ps := textproc.NewPorterStemmer()
	f.Fuzz(func(t *testing.T, w string) {
		checkStemContract(t, ps, w)
	})
}

// TestPorterStemContractOnCorpus: the stem contract holds for every word
// snippets and the tokenizer normalise from the serving benchmark's corpus
// shape (800 papers, 160 terms, seed 1) and for every ontology name.
func TestPorterStemContractOnCorpus(t *testing.T) {
	ocfg := ontology.DefaultGenConfig()
	ocfg.NumTerms = 160
	o, err := ontology.Generate(ocfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(800))
	if err != nil {
		t.Fatal(err)
	}
	words := map[string]bool{}
	add := func(text string) {
		// A snippet's normalised word: surrounding punctuation stripped,
		// then lowercased.
		for _, w := range strings.Fields(text) {
			w = strings.TrimFunc(w, func(r rune) bool {
				return !('a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9')
			})
			words[strings.ToLower(w)] = true
		}
		// The tokenizer's word, lowercased.
		for _, w := range textproc.AppendWords(nil, text) {
			words[strings.ToLower(w)] = true
		}
	}
	for _, p := range c.Papers() {
		add(p.Title + " " + p.Abstract + " " + p.Body)
	}
	for _, id := range o.TermIDs() {
		name := o.Term(id).Name
		words[name] = true
		add(name)
	}
	ps := textproc.NewPorterStemmer()
	for w := range words {
		checkStemContract(t, ps, w)
	}
	t.Logf("%d distinct words", len(words))
}
