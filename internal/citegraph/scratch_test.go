package citegraph

import (
	"reflect"
	"testing"
)

// TestSubgraphIntoMatchesSubgraph extracts many overlapping node sets
// through one reused arena and checks graph and mapping equality with the
// map-based Subgraph every time — including adjacency order, which the
// bit-identical PageRank guarantee depends on.
func TestSubgraphIntoMatchesSubgraph(t *testing.T) {
	g := randomGraph(400, 3000, 7)
	s := NewScratch()
	sets := [][]int{
		{},
		{5},
		{1, 2, 3, 4, 5, 6, 7, 8},
		{7, 3, 3, 399, -1, 400, 0, 7}, // dups and out-of-range
	}
	for k := 0; k < 30; k++ {
		set := make([]int, 0, 50)
		for i := 0; i < 50; i++ {
			set = append(set, (k*37+i*11)%400)
		}
		sets = append(sets, set)
	}
	for si, nodes := range sets {
		want, wantMap := g.Subgraph(nodes)
		got, gotMap := g.SubgraphInto(nodes, s)
		if got.Len() != want.Len() {
			t.Fatalf("set %d: node count %d, want %d", si, got.Len(), want.Len())
		}
		if len(gotMap) != len(wantMap) {
			t.Fatalf("set %d: mapping length %d, want %d", si, len(gotMap), len(wantMap))
		}
		for i := range wantMap {
			if gotMap[i] != wantMap[i] {
				t.Fatalf("set %d: mapping[%d] = %d, want %d", si, i, gotMap[i], wantMap[i])
			}
		}
		for i := 0; i < want.Len(); i++ {
			if !equalAdj(got.Out(i), want.Out(i)) || !equalAdj(got.In(i), want.In(i)) {
				t.Fatalf("set %d: adjacency of node %d differs:\nout %v vs %v\nin  %v vs %v",
					si, i, got.Out(i), want.Out(i), got.In(i), want.In(i))
			}
		}
		if got.Edges() != want.Edges() {
			t.Fatalf("set %d: edges %d, want %d", si, got.Edges(), want.Edges())
		}
	}
}

func equalAdj(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPageRankScratchMatchesPageRank runs the scratch variant over a
// sequence of different-sized subgraphs through one arena and checks the
// scores are bit-identical to the allocating PageRank, for both teleport
// variants.
func TestPageRankScratchMatchesPageRank(t *testing.T) {
	g := randomGraph(600, 7000, 8)
	s := NewScratch()
	for _, tp := range []Teleport{TeleportE1, TeleportE2} {
		for k := 1; k <= 12; k++ {
			nodes := make([]int, 0, k*40)
			for i := 0; i < k*40; i++ {
				nodes = append(nodes, (i*13+k)%600)
			}
			subWant, _ := g.Subgraph(nodes)
			want := PageRank(subWant, tp)
			subGot, _ := g.SubgraphInto(nodes, s)
			got := PageRankScratch(subGot, tp, s)
			if len(got) != len(want) {
				t.Fatalf("%v k=%d: length %d, want %d", tp, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v k=%d: score[%d] = %v, want %v (not bit-identical)", tp, k, i, got[i], want[i])
				}
			}
		}
	}
	// Empty graph through the scratch path.
	empty, _ := g.SubgraphInto(nil, s)
	if got := PageRankScratch(empty, TeleportE1, s); got != nil {
		t.Fatalf("empty subgraph returned %v", got)
	}
}

// TestScratchIntsReuse checks the node-ID buffer grows and is reused.
func TestScratchIntsReuse(t *testing.T) {
	s := NewScratch()
	a := s.Ints(10)
	if len(a) != 10 {
		t.Fatalf("len %d", len(a))
	}
	b := s.Ints(4)
	if len(b) != 4 {
		t.Fatalf("len %d", len(b))
	}
	if &a[0] != &b[0] {
		t.Fatal("shrinking Ints reallocated")
	}
	c := s.Ints(100)
	if len(c) != 100 {
		t.Fatalf("len %d", len(c))
	}
}

// TestSubgraphIntoSparseReset verifies the position table is fully reset
// between extractions: a node present in set A and absent from set B must
// not leak into B's subgraph.
func TestSubgraphIntoSparseReset(t *testing.T) {
	g := NewGraph(10)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(2, 0)
	s := NewScratch()
	if sub, _ := g.SubgraphInto([]int{0, 1, 2}, s); sub.Edges() != 3 {
		t.Fatalf("first extraction edges = %d, want 3", sub.Edges())
	}
	sub, mapping := g.SubgraphInto([]int{1, 2}, s)
	if sub.Len() != 2 || sub.Edges() != 1 {
		t.Fatalf("second extraction: %d nodes %d edges, want 2 nodes 1 edge", sub.Len(), sub.Edges())
	}
	if !reflect.DeepEqual(mapping, []int{1, 2}) {
		t.Fatalf("mapping %v", mapping)
	}
}
