package citegraph

import (
	"math/rand"
	"testing"
)

func randomGraph(n, e int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(n)
	for k := 0; k < e; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			_ = g.AddEdge(i, j)
		}
	}
	return g
}

func BenchmarkPageRank1k(b *testing.B) {
	g := randomGraph(1000, 12000, 1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = PageRank(g, TeleportE2)
	}
}

func BenchmarkPageRankE1(b *testing.B) {
	g := randomGraph(1000, 12000, 1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = PageRank(g, TeleportE1)
	}
}

func BenchmarkHITS1k(b *testing.B) {
	g := randomGraph(1000, 12000, 1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = HITS(g)
	}
}

func BenchmarkSubgraph(b *testing.B) {
	g := randomGraph(5000, 60000, 2)
	nodes := make([]int, 500)
	for i := range nodes {
		nodes[i] = i * 10
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = g.Subgraph(nodes)
	}
}

func BenchmarkSubgraphScratch(b *testing.B) {
	g := randomGraph(5000, 60000, 2)
	nodes := make([]int, 500)
	for i := range nodes {
		nodes[i] = i * 10
	}
	s := NewScratch()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = g.SubgraphInto(nodes, s)
	}
}

// BenchmarkSubgraphPageRankPipeline measures the full per-context offline
// pipeline (extract induced subgraph, run PageRank) with and without the
// reusable arena — the unit of work prestige.Score repeats per
// context. BENCH_PR3.json records the before/after numbers.
func BenchmarkSubgraphPageRankPipeline(b *testing.B) {
	g := randomGraph(5000, 60000, 2)
	nodes := make([]int, 500)
	for i := range nodes {
		nodes[i] = i * 10
	}
	b.Run("map-alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sub, _ := g.Subgraph(nodes)
			_ = PageRank(sub, TeleportE1)
		}
	})
	b.Run("scratch", func(b *testing.B) {
		s := NewScratch()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sub, _ := g.SubgraphInto(nodes, s)
			_ = PageRankScratch(sub, TeleportE1, s)
		}
	})
}

func BenchmarkBibliographicCoupling(b *testing.B) {
	g := randomGraph(2000, 30000, 3)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.BibliographicCoupling(i%2000, (i*7+13)%2000)
	}
}
