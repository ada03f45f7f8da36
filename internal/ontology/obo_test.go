package ontology

import (
	"bytes"
	"strings"
	"testing"
)

const sampleOBO = `format-version: 1.2

[Term]
id: GO:0000001
name: biological process
namespace: biological_process

[Term]
id: GO:0000002
name: rna splicing
namespace: biological_process
def: "Removal of introns."
is_a: GO:0000001 ! biological process

[Term]
id: GO:0000003
name: obsolete thing
is_obsolete: true

[Typedef]
id: part_of
name: part of
`

func TestParseOBO(t *testing.T) {
	o, err := ParseOBO(strings.NewReader(sampleOBO))
	if err != nil {
		t.Fatal(err)
	}
	if o.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (obsolete + typedef skipped)", o.Len())
	}
	sp := o.Term("GO:0000002")
	if sp == nil || sp.Name != "rna splicing" || sp.Def != "Removal of introns." {
		t.Fatalf("term = %+v", sp)
	}
	if len(sp.Parents) != 1 || sp.Parents[0] != "GO:0000001" {
		t.Fatalf("parents = %v (comment after ! must be stripped)", sp.Parents)
	}
	if o.Level("GO:0000002") != 2 {
		t.Fatal("level not computed")
	}
}

func TestParseOBOBadLine(t *testing.T) {
	_, err := ParseOBO(strings.NewReader("[Term]\nid GO:1\n"))
	if err == nil {
		t.Fatal("malformed tag line must fail")
	}
}

func TestParseOBODanglingParent(t *testing.T) {
	_, err := ParseOBO(strings.NewReader("[Term]\nid: GO:1\nname: x\nis_a: GO:404\n"))
	if err == nil {
		t.Fatal("dangling is_a must fail")
	}
}

func TestOBORoundTrip(t *testing.T) {
	orig, err := Generate(GenConfig{Seed: 11, NumTerms: 120, MaxDepth: 7, SecondParentProb: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WriteOBO(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseOBO(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != orig.Len() {
		t.Fatalf("round trip lost terms: %d vs %d", parsed.Len(), orig.Len())
	}
	for _, id := range orig.TermIDs() {
		a, b := orig.Term(id), parsed.Term(id)
		if b == nil || a.Name != b.Name || a.Namespace != b.Namespace ||
			len(a.Parents) != len(b.Parents) {
			t.Fatalf("term %s not preserved: %+v vs %+v", id, a, b)
		}
		if orig.Level(id) != parsed.Level(id) {
			t.Fatalf("level of %s not preserved", id)
		}
		if orig.descCount[id] != parsed.descCount[id] {
			t.Fatalf("descendant count of %s not preserved", id)
		}
	}
	// Serialisation is byte-stable.
	var buf2 bytes.Buffer
	if err := parsed.WriteOBO(&buf2); err != nil {
		t.Fatal(err)
	}
	var buf1 bytes.Buffer
	if err := orig.WriteOBO(&buf1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("OBO serialisation is not byte-stable")
	}
}
