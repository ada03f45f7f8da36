package textproc

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	tok := NewTokenizer()
	got := tok.Terms("Gene Ontology, terms: RNA polymerase II!")
	want := []string{"gene", "ontology", "terms", "rna", "polymerase", "ii"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Terms = %v, want %v", got, want)
	}
}

func TestTokenizeHyphens(t *testing.T) {
	tok := NewTokenizer()
	cases := map[string][]string{
		"co-citation analysis":   {"co-citation", "analysis"},
		"text-based scoring":     {"text-based", "scoring"},
		"-leading and trailing-": {"leading", "and", "trailing"},
		"double--hyphen":         {"double", "hyphen"},
		"a-1 mix 1-a":            {"a", "1", "mix", "1", "a"},
	}
	for in, want := range cases {
		if got := tok.Terms(in); !reflect.DeepEqual(got, want) {
			t.Errorf("Terms(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestTokenizeStopwords(t *testing.T) {
	tok := NewTokenizer(WithStopwords())
	got := tok.Terms("the regulation of transcription is a process")
	want := []string{"regulation", "transcription", "process"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Terms = %v, want %v", got, want)
	}
}

func TestTokenizeMinLength(t *testing.T) {
	tok := NewTokenizer(WithMinLength(3))
	got := tok.Terms("an RNA of id abc")
	want := []string{"rna", "abc"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Terms = %v, want %v", got, want)
	}
}

func TestTokenizeStemming(t *testing.T) {
	tok := NewTokenizer(WithStemming())
	got := tok.Terms("regulations binding activities")
	want := []string{"regul", "bind", "activ"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Terms = %v, want %v", got, want)
	}
}

func TestTokenizeEmptyAndPunctOnly(t *testing.T) {
	tok := NewTokenizer()
	if got := tok.Terms(""); len(got) != 0 {
		t.Errorf("empty input produced %v", got)
	}
	if got := tok.Terms("!!! ,,, ---"); len(got) != 0 {
		t.Errorf("punct-only input produced %v", got)
	}
}

// Property: tokenization output never contains uppercase letters or empty
// tokens, for arbitrary input.
func TestTokenizeNormalisedProperty(t *testing.T) {
	tok := NewTokenizer()
	f := func(s string) bool {
		for _, w := range tok.Terms(s) {
			if w == "" {
				return false
			}
			for _, r := range w {
				if r >= 'A' && r <= 'Z' {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: tokenization is idempotent — retokenizing the joined output
// yields the same terms.
func TestTokenizeIdempotentProperty(t *testing.T) {
	tok := NewTokenizer()
	f := func(s string) bool {
		first := tok.Terms(s)
		joined := ""
		for i, w := range first {
			if i > 0 {
				joined += " "
			}
			joined += w
		}
		second := tok.Terms(joined)
		return reflect.DeepEqual(first, second)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzSplitWords checks the byte-wise ASCII fast path of AppendWords against
// the rune path that defines the split, on arbitrary (also invalid) UTF-8.
func FuzzSplitWords(f *testing.F) {
	for _, s := range []string{
		"co-citation text-based -leading trailing- double--hyphen a-1 1-a a-b-c",
		"RNA polymerase II, 5'-UTR; p<0.05 (n=12)",
		"naïve β-catenin Ångström x-é é-x",
		"\xffbad\x80 bytes-\xc3",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		prefix := []string{"kept"}
		got := AppendWords(prefix, text)
		want := appendWordsRunes([]string{"kept"}, text)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("AppendWords(%q) = %q, rune path %q", text, got, want)
		}
	})
}
