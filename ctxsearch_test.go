package ctxsearch

import (
	"slices"
	"testing"
)

// smallConfig keeps façade tests fast.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.OntologyTerms = 60
	cfg.Papers = 220
	cfg.MaxDepth = 7
	cfg.MinContextSize = 3
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

// TestPatternConfigReachesContextSet: Config.Pattern configures the §4
// pattern-based context set's patterns, as it does the pattern scorer's.
func TestPatternConfigReachesContextSet(t *testing.T) {
	members := func(cs *ContextSet) (n int) {
		for _, ctx := range cs.Contexts() {
			n += cs.Size(ctx)
		}
		return n
	}
	cfg := smallConfig()
	cfg.Pattern.MaxSignificant = 1
	sys, err := NewSyntheticSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, base := members(sys.BuildPatternContextSet()), members(testSystem(t).BuildPatternContextSet()); got == base {
		t.Fatalf("MaxSignificant 1 left the pattern context set at %d memberships", got)
	}
}

func TestMinContextSizeDefault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinContextSize = -1
	// 0.15% of 72027 ≈ 108, close to the paper's 100.
	if got := cfg.minContextSize(72027); got < 100 || got > 115 {
		t.Fatalf("paper-scale cutoff = %d", got)
	}
	if got := cfg.minContextSize(1000); got != 5 {
		t.Fatalf("small-corpus floor = %d", got)
	}
	cfg.MinContextSize = 42
	if got := cfg.minContextSize(72027); got != 42 {
		t.Fatalf("explicit cutoff = %d", got)
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
