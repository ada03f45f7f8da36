package index

import (
	"context"
	"sync"
	"testing"

	"ctxsearch/internal/bitset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/vector"
)

// The top-k benchmarks behind BENCH_PR5.json run on a corpus an order of
// magnitude above the other index benchmarks, with a context-style bitset
// restriction over half of it — the "top-10 query over a large context"
// shape the MaxScore path exists for.
var (
	topkBenchOnce sync.Once
	topkBenchIx   *Index
	topkBenchSet  bitset.Set
	topkBenchQV   vector.Sparse
)

func topkBenchIndex(b testing.TB) (*Index, bitset.Set, vector.Sparse) {
	b.Helper()
	topkBenchOnce.Do(func() {
		o, err := ontology.Generate(ontology.GenConfig{Seed: 7, NumTerms: 120, MaxDepth: 7})
		if err != nil {
			b.Fatal(err)
		}
		c, err := corpus.Generate(o, corpus.DefaultGenConfig(2000))
		if err != nil {
			b.Fatal(err)
		}
		topkBenchIx = BuildWorkers(corpus.NewAnalyzerWorkers(c, 0), 0)
		for d := 0; d < c.Len(); d += 2 {
			topkBenchSet.Add(d)
		}
		topkBenchQV = topkBenchIx.Analyzer().QueryVector(
			"regulation of rna transcription factor binding activity")
	})
	return topkBenchIx, topkBenchSet, topkBenchQV
}

func benchmarkSearchVectorContextTopK(b *testing.B, limit int) {
	ix, set, qv := topkBenchIndex(b)
	opts := Options{Limit: limit, WithinSet: set}
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hits, err := ix.SearchVectorContext(ctx, qv, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(hits) == 0 {
			b.Fatal("no hits")
		}
	}
}

// Exhaustive = the Limit-0 path: score and sort every matching document
// in the context, the pre-MaxScore behaviour at any page size.
func BenchmarkSearchVectorContextTopKExhaustive(b *testing.B) { benchmarkSearchVectorContextTopK(b, 0) }
func BenchmarkSearchVectorContextTopK10(b *testing.B)         { benchmarkSearchVectorContextTopK(b, 10) }
func BenchmarkSearchVectorContextTopK100(b *testing.B)        { benchmarkSearchVectorContextTopK(b, 100) }

// The block-size sweep behind BENCH_PR9.json: the same top-10 query over
// the same 1000-doc context at several block-max granularities, sharing
// the sweep corpus and rebuilding only the index per size, so the sweep
// isolates what the block granularity buys at identical results.
var (
	topkBlockMu  sync.Mutex
	topkBlockIxs = map[int]*Index{}
)

func topkBenchBlockIndex(b *testing.B, blockSize int) *Index {
	b.Helper()
	topkBenchIndex(b) // build the shared corpus/analyzer
	topkBlockMu.Lock()
	defer topkBlockMu.Unlock()
	ix := topkBlockIxs[blockSize]
	if ix == nil {
		ix = buildWorkersBlock(topkBenchIx.Analyzer(), 0, blockSize)
		topkBlockIxs[blockSize] = ix
	}
	return ix
}

func benchmarkTopKBlock(b *testing.B, blockSize int) {
	ix := topkBenchBlockIndex(b, blockSize)
	_, set, qv := topkBenchIndex(b)
	opts := Options{Limit: 10, WithinSet: set}
	ctx := context.Background()
	dst := make([]Hit, 0, opts.Limit)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = ix.searchTopKAppend(ctx, qv, opts, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
		if len(dst) == 0 {
			b.Fatal("no hits")
		}
	}
}

func BenchmarkSearchVectorContextTopKBlock64(b *testing.B)  { benchmarkTopKBlock(b, 64) }
func BenchmarkSearchVectorContextTopKBlock128(b *testing.B) { benchmarkTopKBlock(b, 128) }
func BenchmarkSearchVectorContextTopKBlock256(b *testing.B) { benchmarkTopKBlock(b, 256) }

// BenchmarkSearchVectorContextTopKAppend10 is the zero-allocation
// steady-state number: the block-max top-10 query through the append path
// with a reused destination page (B/op and allocs/op must read 0).
func BenchmarkSearchVectorContextTopKAppend10(b *testing.B) {
	benchmarkTopKBlock(b, DefaultBlockSize)
}
