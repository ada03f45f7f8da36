package corpus

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ctxsearch/internal/ontology"
)

const sampleGAF = `!gaf-version: 2.2
! comment line
SGD	S000001	ACT1	involved_in	GO:0000123	PMID:10000007	IDA		P				protein	taxon:559292	20060101	SGD
SGD	S000002	TUB2	involved_in	GO:0000456	GO_REF:0000033	IEA		P				protein	taxon:559292	20060101	SGD
SGD	S000003	CDC28	involved_in	GO:0000123	PMID:10000008|SGD_REF:1	EXP		P				protein	taxon:559292	20060101	SGD
`

func TestParseGAF(t *testing.T) {
	annots, err := ParseGAF(strings.NewReader(sampleGAF))
	if err != nil {
		t.Fatal(err)
	}
	// The GO_REF line has no PMID and is skipped.
	if len(annots) != 2 {
		t.Fatalf("annotations = %d, want 2: %v", len(annots), annots)
	}
	want := Annotation{Term: "GO:0000123", PMID: 10000007, Evidence: "IDA", Symbol: "ACT1"}
	if annots[0] != want {
		t.Fatalf("annots[0] = %+v, want %+v", annots[0], want)
	}
	if annots[1].PMID != 10000008 || annots[1].Evidence != "EXP" {
		t.Fatalf("annots[1] = %+v (multi-reference parsing broken)", annots[1])
	}
}

func TestParseGAFErrors(t *testing.T) {
	if _, err := ParseGAF(strings.NewReader("too\tfew\tcolumns\n")); err == nil {
		t.Error("short line must fail")
	}
	if _, err := ParseGAF(strings.NewReader("a\tb\tc\td\tGO:1\tPMID:notanumber\tEXP\n")); err == nil {
		t.Error("bad PMID must fail")
	}
	annots, err := ParseGAF(strings.NewReader("!only comments\n"))
	if err != nil || len(annots) != 0 {
		t.Errorf("comment-only file: %v, %v", annots, err)
	}
}

func TestApplyAnnotations(t *testing.T) {
	papers := []*Paper{
		{ID: 0, PMID: 111, Topics: []ontology.TermID{"GO:9"}},
		{ID: 1, PMID: 222, Topics: []ontology.TermID{"GO:5", "GO:7"}},
	}
	annots := []Annotation{
		{Term: "GO:1", PMID: 111},
		{Term: "GO:7", PMID: 222}, // already a (secondary) topic: promote
		{Term: "GO:3", PMID: 999}, // unmatched
	}
	applied, unmatched := ApplyAnnotations(papers, annots)
	if applied != 2 {
		t.Fatalf("applied = %d", applied)
	}
	if !reflect.DeepEqual(unmatched, []int{999}) {
		t.Fatalf("unmatched = %v", unmatched)
	}
	if !papers[0].Evidence || papers[0].Topics[0] != "GO:1" {
		t.Fatalf("paper 0 not annotated: %+v", papers[0])
	}
	if papers[1].Topics[0] != "GO:7" || len(papers[1].Topics) != 2 {
		t.Fatalf("paper 1 topic promotion broken: %v", papers[1].Topics)
	}
}

func TestGAFRoundTrip(t *testing.T) {
	c, _ := testCorpus(t, 200)
	var buf bytes.Buffer
	if err := WriteGAF(&buf, c); err != nil {
		t.Fatal(err)
	}
	annots, err := ParseGAF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Every (term, evidence paper) pair must appear exactly once.
	wantPairs := map[string]bool{}
	for _, term := range c.EvidenceTerms() {
		for _, id := range c.EvidencePapers(term) {
			wantPairs[string(term)+"|"+itoa(c.Paper(id).PMID)] = true
		}
	}
	gotPairs := map[string]bool{}
	for _, a := range annots {
		gotPairs[string(a.Term)+"|"+itoa(a.PMID)] = true
	}
	if !reflect.DeepEqual(wantPairs, gotPairs) {
		t.Fatalf("GAF round trip lost pairs: want %d, got %d", len(wantPairs), len(gotPairs))
	}
	// Applying the parsed annotations to a fresh copy of the papers must
	// reproduce the evidence marking.
	fresh := make([]*Paper, c.Len())
	for i, p := range c.Papers() {
		cp := *p
		cp.Evidence = false
		cp.Topics = append([]ontology.TermID(nil), p.Topics...)
		fresh[i] = &cp
	}
	applied, unmatched := ApplyAnnotations(fresh, annots)
	if len(unmatched) != 0 {
		t.Fatalf("unmatched PMIDs after round trip: %v", unmatched)
	}
	if applied != len(annots) {
		t.Fatalf("applied %d of %d", applied, len(annots))
	}
	rebuilt, err := NewCorpus(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rebuilt.EvidenceTerms(), c.EvidenceTerms()) {
		t.Fatal("evidence terms differ after GAF round trip")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// FuzzParseGAF: ParseGAF returns annotations or an error and never panics;
// every annotation it returns cites a PMID and comes from its own line.
func FuzzParseGAF(f *testing.F) {
	for _, s := range []string{
		sampleGAF,
		"too\tfew\tcolumns\n",
		"a\tb\tc\td\tGO:1\tPMID:\tEXP\n",
		"a\tb\tc\td\tGO:1\tPMID:x|PMID:7\tEXP\n",
		"a\tb\tc\td\tGO:1\tDOI:1|PMID:7|PMID:8\tEXP\n",
		"a\tb\tc\td\tGO:1\tPMID:0\tEXP\n\n!\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		annots, err := ParseGAF(strings.NewReader(s))
		if err != nil {
			return
		}
		if lines := strings.Count(s, "\n") + 1; len(annots) > lines {
			t.Fatalf("%d annotations from %d lines", len(annots), lines)
		}
		for _, a := range annots {
			if a.PMID == 0 {
				t.Fatalf("annotation without a PMID: %+v", a)
			}
		}
	})
}
