package corpus

import (
	"slices"
	"strings"
	"testing"

	"ctxsearch/internal/ontology"
)

func testOntology(t testing.TB) *ontology.Ontology {
	t.Helper()
	o, err := ontology.Generate(ontology.GenConfig{Seed: 2, NumTerms: 120, MaxDepth: 8, SecondParentProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func testCorpus(t testing.TB, n int) (*Corpus, *ontology.Ontology) {
	t.Helper()
	o := testOntology(t)
	cfg := DefaultGenConfig(n)
	c, err := Generate(o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, o
}

func TestGenerateBasics(t *testing.T) {
	c, o := testCorpus(t, 300)
	if c.Len() != 300 {
		t.Fatalf("Len = %d", c.Len())
	}
	for _, p := range c.Papers() {
		if p.Title == "" || p.Abstract == "" || p.Body == "" {
			t.Fatalf("paper %d has empty sections", p.ID)
		}
		if len(p.Authors) == 0 {
			t.Fatalf("paper %d has no authors", p.ID)
		}
		if len(p.Topics) == 0 || len(p.Topics) > 3 {
			t.Fatalf("paper %d has %d topics", p.ID, len(p.Topics))
		}
		for _, topic := range p.Topics {
			if o.Term(topic) == nil {
				t.Fatalf("paper %d has unknown topic %s", p.ID, topic)
			}
			if o.Level(topic) < 2 {
				t.Fatalf("paper %d topic %s is a root", p.ID, topic)
			}
		}
		for _, r := range p.References {
			if r >= p.ID {
				t.Fatalf("paper %d cites %d (not older)", p.ID, r)
			}
		}
		if len(p.IndexTerms) < len(p.Topics) {
			t.Fatalf("paper %d has %d index terms for %d topics", p.ID, len(p.IndexTerms), len(p.Topics))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	o := testOntology(t)
	cfg := DefaultGenConfig(150)
	a, err := Generate(o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Papers() {
		pa, pb := a.Papers()[i], b.Papers()[i]
		if pa.Title != pb.Title || pa.Body != pb.Body || len(pa.References) != len(pb.References) {
			t.Fatalf("paper %d differs between identical runs", i)
		}
	}
}

func TestGenerateEvidencePapers(t *testing.T) {
	c, _ := testCorpus(t, 400)
	terms := c.EvidenceTerms()
	if len(terms) == 0 {
		t.Fatal("no evidence terms")
	}
	cfg := DefaultGenConfig(400)
	for _, term := range terms {
		ev := c.EvidencePapers(term)
		if len(ev) == 0 || len(ev) > cfg.EvidencePerTerm {
			t.Fatalf("term %s has %d evidence papers", term, len(ev))
		}
		for _, id := range ev {
			p := c.Paper(id)
			if !p.Evidence || p.Topics[0] != term {
				t.Fatalf("paper %d is not a valid evidence paper for %s", id, term)
			}
		}
	}
}

func TestGenerateTopicalText(t *testing.T) {
	c, o := testCorpus(t, 200)
	// A paper's title+abstract should usually mention at least one word of
	// its primary topic's term name — that's what anchors every ranking
	// function. Demand it for a clear majority.
	hit := 0
	for _, p := range c.Papers() {
		name := strings.ToLower(o.Term(p.Topics[0]).Name)
		text := strings.ToLower(p.Title + " " + p.Abstract)
		for _, w := range strings.Fields(name) {
			if strings.Contains(text, w) {
				hit++
				break
			}
		}
	}
	if hit < c.Len()*3/4 {
		t.Fatalf("only %d/%d papers mention their primary topic", hit, c.Len())
	}
}

func TestGenerateCitationTopicBias(t *testing.T) {
	c, o := testCorpus(t, 500)
	related, total := 0, 0
	for _, p := range c.Papers() {
		for _, r := range p.References {
			total++
			// Citations are biased toward the same topic or a
			// hierarchically related one (CiteUpProb redirects to
			// ancestors — foundational work).
		refLoop:
			for _, rt := range c.Paper(r).Topics {
				for _, pt := range p.Topics {
					if pt == rt || slices.Contains(o.Ancestors(pt), rt) || slices.Contains(o.Ancestors(rt), pt) {
						related++
						break refLoop
					}
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no references generated")
	}
	frac := float64(related) / float64(total)
	if frac < 0.3 {
		t.Fatalf("only %.0f%% of citations are topically related; generator lost its bias", 100*frac)
	}
}

func TestGenerateErrors(t *testing.T) {
	o := testOntology(t)
	if _, err := Generate(o, GenConfig{NumPapers: 0}); err == nil {
		t.Error("zero papers must fail")
	}
	if _, err := Generate(nil, DefaultGenConfig(10)); err == nil {
		t.Error("nil ontology must fail")
	}
	empty := ontology.New()
	if err := empty.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(empty, DefaultGenConfig(10)); err == nil {
		t.Error("empty ontology must fail")
	}
}

func TestNewCorpusValidation(t *testing.T) {
	if _, err := NewCorpus([]*Paper{{ID: 5}}); err == nil {
		t.Error("non-dense IDs must fail")
	}
	if _, err := NewCorpus([]*Paper{nil}); err == nil {
		t.Error("nil paper must fail")
	}
	if _, err := NewCorpus([]*Paper{{ID: 0, References: []PaperID{7}}}); err == nil {
		t.Error("dangling reference must fail")
	}
	if _, err := NewCorpus([]*Paper{{ID: 0, References: []PaperID{0}}}); err == nil {
		t.Error("self citation must fail")
	}
}

func TestCitedByIndex(t *testing.T) {
	papers := []*Paper{
		{ID: 0}, {ID: 1, References: []PaperID{0}}, {ID: 2, References: []PaperID{0, 1}},
	}
	c, err := NewCorpus(papers)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.CitedBy(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("CitedBy(0) = %v", got)
	}
	if got := c.CitedBy(2); len(got) != 0 {
		t.Fatalf("CitedBy(2) = %v", got)
	}
	if c.Paper(PaperID(99)) != nil || c.Paper(PaperID(-1)) != nil {
		t.Fatal("out-of-range Paper must return nil")
	}
}

func TestSectionText(t *testing.T) {
	p := &Paper{Title: "T", Abstract: "A", Body: "B", IndexTerms: []string{"x", "y"}}
	if p.SectionText(SecTitle) != "T" || p.SectionText(SecAbstract) != "A" ||
		p.SectionText(SecBody) != "B" || p.SectionText(SecIndexTerms) != "x; y" {
		t.Fatal("SectionText mismatch")
	}
	if Section(99).String() == "" {
		t.Fatal("unknown section must stringify")
	}
	if SecTitle.String() != "title" {
		t.Fatal("section name mismatch")
	}
}
