package citegraph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) < tol }

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func TestPageRankEmptyAndSingle(t *testing.T) {
	if got := PageRank(NewGraph(0), TeleportE1); got != nil {
		t.Errorf("empty graph: %v", got)
	}
	got := PageRank(NewGraph(1), TeleportE1)
	if len(got) != 1 || !almostEq(got[0], 1, 1e-12) {
		t.Errorf("single node: %v", got)
	}
}

func TestPageRankStar(t *testing.T) {
	// Nodes 1..4 all cite node 0: node 0 must rank strictly highest.
	for _, tp := range []Teleport{TeleportE1, TeleportE2} {
		g := NewGraph(5)
		for i := 1; i < 5; i++ {
			_ = g.AddEdge(i, 0)
		}
		p := PageRank(g, tp)
		if !almostEq(sum(p), 1, 1e-9) {
			t.Errorf("%v: sum = %v", tp, sum(p))
		}
		for i := 1; i < 5; i++ {
			if p[0] <= p[i] {
				t.Errorf("%v: hub not highest: %v", tp, p)
			}
		}
		// Symmetric leaves get equal scores.
		for i := 2; i < 5; i++ {
			if !almostEq(p[1], p[i], 1e-9) {
				t.Errorf("%v: asymmetric leaves: %v", tp, p)
			}
		}
	}
}

func TestPageRankCycleUniform(t *testing.T) {
	// A directed cycle is perfectly symmetric: uniform scores.
	g := NewGraph(4)
	for i := 0; i < 4; i++ {
		_ = g.AddEdge(i, (i+1)%4)
	}
	for _, tp := range []Teleport{TeleportE1, TeleportE2} {
		p := PageRank(g, tp)
		for i := range p {
			if !almostEq(p[i], 0.25, 1e-9) {
				t.Fatalf("%v: cycle not uniform: %v", tp, p)
			}
		}
	}
}

func TestPageRankDanglingMassConserved(t *testing.T) {
	// 0→1, 1 dangling. Scores must stay a distribution.
	g := NewGraph(2)
	_ = g.AddEdge(0, 1)
	p := PageRank(g, TeleportE2)
	if !almostEq(sum(p), 1, 1e-9) {
		t.Fatalf("sum = %v", sum(p))
	}
	if p[1] <= p[0] {
		t.Fatalf("cited dangling node must outrank citing node: %v", p)
	}
}

func TestPageRankE1E2Correlate(t *testing.T) {
	// On a random graph the two teleport variants must produce very similar
	// rankings (the paper treats them as interchangeable options).
	rng := rand.New(rand.NewSource(7))
	g := NewGraph(60)
	for k := 0; k < 300; k++ {
		i, j := rng.Intn(60), rng.Intn(60)
		if i != j {
			_ = g.AddEdge(i, j)
		}
	}
	p1 := PageRank(g, TeleportE1)
	p2 := PageRank(g, TeleportE2)
	// Same top node and positive correlation of scores.
	top := func(v []float64) int {
		best := 0
		for i, x := range v {
			if x > v[best] {
				best = i
			}
		}
		return best
	}
	if top(p1) != top(p2) {
		t.Errorf("teleport variants disagree on top node")
	}
}

func TestPageRankConvergesProperty(t *testing.T) {
	// Property: for random graphs, PageRank returns a probability
	// distribution with no NaNs.
	f := func(seed int64, nRaw uint8, eRaw uint8) bool {
		n := int(nRaw%40) + 2
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph(n)
		for k := 0; k < int(eRaw); k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				_ = g.AddEdge(i, j)
			}
		}
		for _, tp := range []Teleport{TeleportE1, TeleportE2} {
			p := PageRank(g, tp)
			if !almostEq(sum(p), 1, 1e-6) {
				return false
			}
			for _, x := range p {
				if math.IsNaN(x) || x < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHITS(t *testing.T) {
	// 0 and 1 are hubs citing authorities 2, 3.
	g := NewGraph(4)
	_ = g.AddEdge(0, 2)
	_ = g.AddEdge(0, 3)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(1, 3)
	auth, hub := HITS(g)
	if auth[2] <= auth[0] || auth[3] <= auth[1] {
		t.Errorf("authorities wrong: %v", auth)
	}
	if hub[0] <= hub[2] || hub[1] <= hub[3] {
		t.Errorf("hubs wrong: %v", hub)
	}
	if a, h := HITS(NewGraph(0)); a != nil || h != nil {
		t.Error("empty graph must return nils")
	}
}

func TestTeleportString(t *testing.T) {
	if TeleportE1.String() != "E1" || TeleportE2.String() != "E2" {
		t.Fatal("teleport names wrong")
	}
	if Teleport(9).String() == "" {
		t.Fatal("unknown teleport must stringify")
	}
}
