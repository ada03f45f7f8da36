package index

import (
	"strings"
	"testing"

	"ctxsearch/internal/corpus"
)

// stableLeaves reports whether every leaf term of q survives the parser's
// normalisation unchanged — the tokenizer maps it to itself and the lexer
// does not read it as a keyword. String() renders leaves stemmed, and the
// Porter stemmer is not idempotent ("agreed" → "agre" → "agr"), so only
// such queries can promise a rendering that re-parses to itself.
func stableLeaves(a *corpus.Analyzer, q Query) bool {
	stable := func(term string) bool {
		switch strings.ToUpper(term) {
		case "AND", "OR", "NOT":
			return false
		}
		terms := a.Tokenizer().Terms(term)
		return len(terms) == 1 && terms[0] == term
	}
	allStable := func(kids []Query) bool {
		for _, k := range kids {
			if !stableLeaves(a, k) {
				return false
			}
		}
		return true
	}
	switch q := q.(type) {
	case termQuery:
		return stable(q.term)
	case fieldQuery:
		return stable(q.term)
	case phraseQuery:
		for _, w := range q.words {
			if !stable(w) {
				return false
			}
		}
		return true
	case andQuery:
		return allStable(q.kids)
	case orQuery:
		return allStable(q.kids)
	case notQuery:
		return stableLeaves(a, q.kid)
	}
	return false
}

// FuzzParseQuery throws arbitrary input at the boolean query language on a
// small fixed index: ParseQuery and the evaluator never panic; a parsed
// query whose leaves are stable under normalisation renders a String() that
// re-parses to the same String(); and the evaluator on frozen data agrees
// with the reference evaluator on every hit.
func FuzzParseQuery(f *testing.F) {
	for _, s := range []string{
		"rna AND polymerase",
		`"rna polymerase" OR "dna repair"`,
		"NOT (dna OR steel) rna",
		"title:rna AND NOT body:spliceosome",
		"repair of dna",
		"go:0000123 co-factor keywords:alloys",
		`((rna) AND NOT ("the of" OR zzyzxq)) title:`,
		"agreed nots ANDs \"unterminated",
		"\xff(\x00 OR \"\" ) not AND or",
	} {
		f.Add(s)
	}
	ix, _ := buildTestIndex(f)
	a := ix.Analyzer()
	ref := newRefAnalysis(a)
	f.Fuzz(func(t *testing.T, s string) {
		q, err := ix.ParseQuery(s)
		if err != nil {
			return
		}
		canon := q.String()
		if stableLeaves(a, q) {
			q2, err := ix.ParseQuery(canon)
			if err != nil {
				t.Fatalf("%q parses to %q, which does not re-parse: %v", s, canon, err)
			}
			if again := q2.String(); again != canon {
				t.Fatalf("%q parses to %q, which re-parses to %q", s, canon, again)
			}
		}
		got, gotErr := ix.SearchQuery(q, Options{})
		want, wantErr := refSearchQuery(ix, ref, q, Options{})
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%q: error %v, reference error %v", s, gotErr, wantErr)
		}
		if err := sameHits(got, want); err != nil {
			t.Fatalf("%q (%s): %v", s, canon, err)
		}
	})
}
