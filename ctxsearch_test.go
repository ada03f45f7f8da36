package ctxsearch

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
)

// smallConfig keeps façade tests fast.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.OntologyTerms = 60
	cfg.Papers = 220
	cfg.MaxDepth = 7
	return cfg
}

var sysCache *System

func testSystem(t *testing.T) *System {
	t.Helper()
	if sysCache != nil {
		return sysCache
	}
	sys, err := NewSyntheticSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sysCache = sys
	return sys
}

func TestNewSyntheticSystem(t *testing.T) {
	sys := testSystem(t)
	if sys.Ontology.Len() != 60 || sys.Corpus.Len() != 220 {
		t.Fatalf("sizes: %d terms, %d papers", sys.Ontology.Len(), sys.Corpus.Len())
	}
	if sys.Index().Terms() == 0 {
		t.Fatal("index empty")
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil, nil, DefaultConfig()); err == nil {
		t.Fatal("nil inputs must fail")
	}
}

// TestNewSystemRefusesTFPastPosting: a posting stores its term frequency in
// 16 bits, so a loaded corpus whose body repeats one word 65 536 times is an
// error naming the paper and the term, not a panic.
func TestNewSystemRefusesTFPastPosting(t *testing.T) {
	o := ontology.New()
	if err := o.Add(ontology.Term{ID: "GO:1", Name: "repair"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Build(); err != nil {
		t.Fatal(err)
	}
	c, err := corpus.NewCorpus([]*corpus.Paper{
		{ID: 0, Title: "dna repair"},
		{ID: 1, Title: "one word", Body: strings.Repeat("helicase ", 65536)},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.gob")
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if c, err = corpus.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	_, err = NewSystem(o, c, DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), `paper 1, term "helicas"`) || !strings.Contains(err.Error(), "65535") {
		t.Fatalf("err = %v, want one naming paper 1, its term and the TF ceiling", err)
	}
}

func TestEndToEndTextPipeline(t *testing.T) {
	sys := testSystem(t)
	cs := sys.BuildTextContextSet()
	if len(cs.Contexts()) == 0 {
		t.Fatal("no contexts")
	}
	scores := sys.ScoreText(cs)
	if scores.NumContexts() == 0 {
		t.Fatal("no scores")
	}
	engine := sys.Engine(scores)
	// Query with a scored context's name: must return results.
	var query string
	for _, ctx := range scores.Contexts() {
		query = sys.Ontology.Term(ctx).Name
		break
	}
	results := engine.Search(query, SearchOptions{})
	if len(results) == 0 {
		t.Fatalf("no results for %q", query)
	}
	baseline := sys.BaselineTFIDF(query, 0, 0)
	if len(results) > len(baseline) {
		t.Fatal("context search output exceeds whole-corpus baseline")
	}
	if ids := sys.BaselinePubMed(query); len(ids) == 0 {
		t.Fatal("PubMed baseline empty")
	}
}

func TestEndToEndPatternPipeline(t *testing.T) {
	sys := testSystem(t)
	cs := sys.BuildPatternContextSet()
	if len(cs.Contexts()) == 0 {
		t.Fatal("no contexts")
	}
	scores := sys.ScorePattern(cs)
	if scores.NumContexts() == 0 {
		t.Fatal("no pattern scores")
	}
	cit := sys.ScoreCitation(cs)
	if cit.NumContexts() == 0 {
		t.Fatal("no citation scores")
	}
	// Both functions scored the same contexts (those above the cutoff).
	if !slices.Equal(scores.Contexts(), cit.Contexts()) {
		t.Fatalf("pattern scored %v, citation %v", scores.Contexts(), cit.Contexts())
	}
}

func TestMinContextSizeDefault(t *testing.T) {
	// 0.15% of 72027 ≈ 108, close to the paper's 100.
	if got := minContextSize(72027); got < 100 || got > 115 {
		t.Fatalf("paper-scale cutoff = %d", got)
	}
	if got := minContextSize(1000); got != 5 {
		t.Fatalf("small-corpus floor = %d", got)
	}
}

func TestScorersAreNamed(t *testing.T) {
	sys := testSystem(t)
	if sys.CitationScorer().Name() != "citation" ||
		sys.TextScorer().Name() != "text" ||
		sys.PatternScorer().Name() != "pattern" {
		t.Fatal("scorer names wrong")
	}
}
