package ontology

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// TestParseOBOJunkNeverPanics feeds random byte soup to the OBO parser: it
// must return (possibly an error) without panicking, and any ontology it
// does return must satisfy structural invariants.
func TestParseOBOJunkNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		o, err := ParseOBO(strings.NewReader(string(raw)))
		if err != nil {
			return true
		}
		// Structural invariants of a successfully parsed ontology.
		for _, id := range o.TermIDs() {
			if o.Term(id) == nil {
				return false
			}
			if o.Level(id) < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestParseOBOStructuredJunk mixes valid-looking stanzas with garbage tags
// and verifies the parser's tolerance is intentional: unknown tags are
// skipped, malformed tag lines fail.
func TestParseOBOStructuredJunk(t *testing.T) {
	ok := `[Term]
id: GO:1
name: alpha
weird_tag: whatever
xref: DB:123

[Term]
id: GO:2
name: beta
is_a: GO:1
`
	o, err := ParseOBO(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("tolerant parse failed: %v", err)
	}
	if o.Len() != 2 {
		t.Fatalf("Len = %d", o.Len())
	}
}

// TestGenerateStressDepths runs the generator across many configurations,
// asserting it never errors and always populates the requested structure.
func TestGenerateStressDepths(t *testing.T) {
	for _, terms := range []int{3, 4, 10, 50} {
		for _, depth := range []int{2, 3, 6, 12} {
			o, err := Generate(GenConfig{Seed: int64(terms*100 + depth), NumTerms: terms, MaxDepth: depth, SecondParentProb: 0.3})
			if err != nil {
				t.Fatalf("terms=%d depth=%d: %v", terms, depth, err)
			}
			if o.Len() != terms {
				t.Fatalf("terms=%d depth=%d: got %d terms", terms, depth, o.Len())
			}
			if o.MaxLevel() > depth {
				t.Fatalf("terms=%d depth=%d: max level %d", terms, depth, o.MaxLevel())
			}
		}
	}
}

// FuzzParseOBO: ParseOBO returns an ontology or an error and never panics,
// and an ontology it returns is a DAG every term of which sits one level
// below its shallowest parent at most (cycles, self is_a, dangling parents
// and empty IDs are errors).
func FuzzParseOBO(f *testing.F) {
	for _, s := range []string{
		"[Term]\nid: A\nname: a\n\n[Term]\nid: B\nname: b\nis_a: A ! a\n",
		"[Term]\nid: A\nname: a\nis_a: B\n\n[Term]\nid: B\nname: b\nis_a: A\n",
		"[Term]\nid: A\nname: a\nis_a: A\n",
		"[Term]\nid:\nname: nameless\n",
		"[Term]\nid: A\nname: a\n\n[Term]\nid: B\nname: b\nis_a: A\nis_obsolete: true\n\n[Term]\nid: C\nname: c\nis_a: B\n",
		"[Typedef]\nid: part_of\nname: part of\n\n[Term]\nid: A\nname: a\ndef: \"x\" []\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		o, err := ParseOBO(strings.NewReader(s))
		if err != nil {
			return
		}
		for _, id := range o.TermIDs() {
			if o.Term(id) == nil || o.Level(id) < 1 {
				t.Fatalf("term %q: missing or at level %d", id, o.Level(id))
			}
			for _, p := range o.Parents(id) {
				if o.Term(p) == nil {
					t.Fatalf("term %q: parent %q is not a term", id, p)
				}
				if p == id || slices.Contains(o.Ancestors(p), id) {
					t.Fatalf("term %q: parent %q closes a cycle", id, p)
				}
				if o.Level(id) > o.Level(p)+1 {
					t.Fatalf("term %q at level %d under %q at level %d", id, o.Level(id), p, o.Level(p))
				}
			}
		}
	})
}
