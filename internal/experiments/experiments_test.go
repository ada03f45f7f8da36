package experiments

import (
	"bytes"
	"strings"
	"testing"
)

var cachedSetup *Setup

func testSetup(t *testing.T) *Setup {
	t.Helper()
	if cachedSetup != nil {
		return cachedSetup
	}
	s, err := NewSetup(Scale{Papers: 300, Terms: 70, Queries: 15, Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cachedSetup = s
	return s
}

func TestSetupCompleteness(t *testing.T) {
	s := testSetup(t)
	if len(s.TextSet.Contexts()) == 0 || len(s.PatternSet.Contexts()) == 0 {
		t.Fatal("context sets empty")
	}
	if s.TextOnTextSet.NumContexts() == 0 || s.CitOnTextSet.NumContexts() == 0 {
		t.Fatal("text-set scores missing")
	}
	if s.PatOnPatSet.NumContexts() == 0 || s.CitOnPatSet.NumContexts() == 0 {
		t.Fatal("pattern-set scores missing")
	}
	if len(s.Queries) == 0 || len(s.ACAnswers) != len(s.Queries) {
		t.Fatal("queries/answers missing")
	}
}

func TestFig51And52Shapes(t *testing.T) {
	s := testSetup(t)
	for _, fig := range []PrecisionFigure{s.Fig51(), s.Fig52()} {
		if len(fig.Series) != 2 {
			t.Fatalf("%s: %d series", fig.Name, len(fig.Series))
		}
		for _, series := range fig.Series {
			if len(series.Points) != len(PrecisionThresholds) {
				t.Fatalf("%s/%s: %d points", fig.Name, series.Function, len(series.Points))
			}
			for _, pt := range series.Points {
				if pt.Avg < 0 || pt.Avg > 1 || pt.Median < 0 || pt.Median > 1 {
					t.Fatalf("%s/%s: precision out of range: %+v", fig.Name, series.Function, pt)
				}
			}
		}
		var buf bytes.Buffer
		RenderPrecision(&buf, fig)
		if !strings.Contains(buf.String(), "threshold") {
			t.Fatal("render produced no table")
		}
	}
}

func TestFig53Shape(t *testing.T) {
	s := testSetup(t)
	fig := s.Fig53()
	if len(fig.Pairs) != 3 {
		t.Fatalf("pairs = %d", len(fig.Pairs))
	}
	for pair, byLevel := range fig.Pairs {
		for level, row := range byLevel {
			if len(row) != len(KPercents) {
				t.Fatalf("%s level %d: %d values", pair, level, len(row))
			}
			for _, v := range row {
				if v < 0 || v > 1 {
					t.Fatalf("%s level %d: overlap %v out of range", pair, level, v)
				}
			}
		}
	}
	var buf bytes.Buffer
	RenderOverlap(&buf, fig)
	if !strings.Contains(buf.String(), "text-citation") {
		t.Fatal("render missing pair")
	}
}

func TestFig54To57Shapes(t *testing.T) {
	s := testSetup(t)
	a, b := s.Fig54()
	for _, fig := range []SeparabilityFigure{a, b, s.Fig55(), s.Fig56(), s.Fig57()} {
		if len(fig.BinEdges) != 8 {
			t.Fatalf("%s: %d bins", fig.Name, len(fig.BinEdges))
		}
		for name, row := range fig.Series {
			if len(row) != len(fig.BinEdges) {
				t.Fatalf("%s/%s: %d values", fig.Name, name, len(row))
			}
			var total float64
			for _, v := range row {
				total += v
			}
			// Either empty (no contexts at that level) or sums to 100%.
			if total != 0 && (total < 99.9 || total > 100.1) {
				t.Fatalf("%s/%s: percentages sum to %v", fig.Name, name, total)
			}
		}
		var buf bytes.Buffer
		RenderSeparability(&buf, fig)
		if !strings.Contains(buf.String(), "SD bin") {
			t.Fatal("render produced no histogram")
		}
	}
}

func TestClaimBaseline(t *testing.T) {
	s := testSetup(t)
	r := s.ClaimBaseline()
	if r.Queries == 0 {
		t.Fatal("no queries evaluated")
	}
	if r.AvgOutputReduction < 0 || r.AvgOutputReduction > 1 {
		t.Fatalf("reduction out of range: %v", r.AvgOutputReduction)
	}
	if r.MaxOutputReduction < r.AvgOutputReduction {
		t.Fatal("max < avg reduction")
	}
	// Context-based search must actually reduce output.
	if r.AvgOutputReduction == 0 {
		t.Fatal("no output reduction at all")
	}
	var buf bytes.Buffer
	RenderClaim(&buf, r)
	if !strings.Contains(buf.String(), "output reduction") {
		t.Fatal("render incomplete")
	}
}

func TestAblations(t *testing.T) {
	s := testSetup(t)
	tp := s.AblateTeleport()
	if tp.Contexts == 0 {
		t.Fatal("teleport ablation saw no contexts")
	}
	if tp.MeanSpearman < 0.3 {
		t.Fatalf("E1/E2 correlation suspiciously low: %v", tp.MeanSpearman)
	}
	h := s.AblateHITS()
	if h.GlobalSpearman < 0.2 {
		t.Fatalf("HITS/PageRank global correlation too low: %v", h.GlobalSpearman)
	}
	cut := s.AblateCutoff([]int{0, 5, 20})
	if len(cut.Contexts) != 3 {
		t.Fatal("cutoff sweep incomplete")
	}
	if cut.Contexts[0] < cut.Contexts[2] {
		t.Fatal("higher cutoff kept more contexts")
	}
	cc := s.AblateCrossContext()
	if cc.Contexts == 0 {
		t.Fatal("cross-context ablation saw no contexts")
	}
	var buf bytes.Buffer
	RenderTeleport(&buf, tp)
	RenderHITS(&buf, h)
	RenderCutoff(&buf, cut)
	RenderCrossContext(&buf, cc)
	RenderSparseness(&buf, s.SparsenessByLevel())
	for _, want := range []string{"A1", "A2", "A3", "E1", "sparseness"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("ablation render missing %q", want)
		}
	}
}

func TestSparsenessByLevel(t *testing.T) {
	s := testSetup(t)
	byLevel := s.SparsenessByLevel()
	for l, v := range byLevel {
		if v.EdgeSparseness < 0 || v.EdgeSparseness > 1 {
			t.Fatalf("level %d edge sparseness %v", l, v.EdgeSparseness)
		}
		if v.IsolationFraction < 0 || v.IsolationFraction > 1 {
			t.Fatalf("level %d isolation %v", l, v.IsolationFraction)
		}
	}
}
