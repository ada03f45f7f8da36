package index

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ctxsearch/internal/bitset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
)

// buildBlockFixture builds the shared mid-sized analyzer once so the
// block-size battery can construct sibling indexes cheaply.
func buildBlockFixture(t testing.TB) (*corpus.Analyzer, *corpus.Corpus) {
	t.Helper()
	o, err := ontology.Generate(ontology.GenConfig{Seed: 11, NumTerms: 70, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	return corpus.NewAnalyzerWorkers(c, 0), c
}

// TestSearchTopKBlockSizeGolden asserts the block-max pruned path returns
// byte-identical pages at every block granularity — one block per term (a
// block at least as long as the longest posting run, bounded by the global
// maxima: plain MaxScore), degenerate one-posting blocks, tiny, and
// realistic sizes — across randomized (k, threshold, restriction)
// combinations. Identical results at all settings is the whole exactness
// contract: block bounds only ever skip work, never change scores.
func TestSearchTopKBlockSizeGolden(t *testing.T) {
	a, c := buildBlockFixture(t)
	queries := []string{
		"regulation of rna synthesis",
		"protein binding transport",
		"activity complex formation regulation binding transport rna protein",
		"synthesis",
	}
	// No posting run is longer than the corpus, so c.Len() is the
	// one-block-per-term arm.
	for _, bs := range []int{c.Len(), 1, 3, 64, 128} {
		bs := bs
		t.Run(fmt.Sprintf("block=%d", bs), func(t *testing.T) {
			ix := buildWorkersBlock(a, 0, bs)
			if ix.blockSize != bs {
				t.Fatalf("block size %d, want %d", ix.blockSize, bs)
			}
			rng := rand.New(rand.NewSource(99))
			for qi, q := range queries {
				qv := a.QueryVector(q)
				for trial := 0; trial < 20; trial++ {
					opts := Options{Limit: 1 + rng.Intn(40)}
					switch rng.Intn(3) {
					case 1:
						opts.Threshold = rng.Float64() * 0.4
					case 2:
						var set bitset.Set
						for d := 0; d < c.Len(); d++ {
							if rng.Intn(2) == 0 {
								set.Add(d)
							}
						}
						opts.WithinSet = set
						opts.Threshold = rng.Float64() * 0.2
					}
					label := fmt.Sprintf("query %d %q trial %d opts %+v", qi, q, trial, opts)
					got, err := ix.SearchVectorContext(context.Background(), qv, opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					diffHits(t, label, got, exhaustiveTopK(t, ix, qv, opts))
				}
			}
		})
	}
}

// checkBlockTables verifies the block tables against a naive recomputation
// over the index's own postings: offsets shape, and each block's maxima
// being exactly the maxima of the postings it covers.
func checkBlockTables(t *testing.T, label string, ix *Index) {
	t.Helper()
	bs := ix.blockSize
	if bs <= 0 || ix.blockOffsets == nil {
		t.Fatalf("%s: no block tables (size %d)", label, bs)
	}
	if len(ix.blockOffsets) != ix.Terms()+1 || ix.blockOffsets[0] != 0 {
		t.Fatalf("%s: block offsets shape %d for %d terms", label, len(ix.blockOffsets), ix.Terms())
	}
	for tid := 0; tid < ix.Terms(); tid++ {
		docs, ws := ix.Postings(int32(tid))
		wantBlocks := (len(docs) + bs - 1) / bs
		first := int(ix.blockOffsets[tid])
		if int(ix.blockOffsets[tid+1])-first != wantBlocks {
			t.Fatalf("%s: term %d has %d postings, %d blocks, want %d",
				label, tid, len(docs), int(ix.blockOffsets[tid+1])-first, wantBlocks)
		}
		for b := 0; b < wantBlocks; b++ {
			lo, hi := b*bs, min((b+1)*bs, len(docs))
			var mw, mr float64
			for k := lo; k < hi; k++ {
				if ws[k] > mw {
					mw = ws[k]
				}
				if dn := ix.norms[docs[k]]; dn > 0 && ws[k]/dn > mr {
					mr = ws[k] / dn
				}
			}
			if ix.blockMaxWeight[first+b] != mw || ix.blockMaxRatio[first+b] != mr {
				t.Fatalf("%s: term %d block %d maxima = (%v, %v), want (%v, %v)",
					label, tid, b, ix.blockMaxWeight[first+b], ix.blockMaxRatio[first+b], mw, mr)
			}
		}
	}
}

// TestBuildBlockMaxima pins every per-block maximum as exactly the maximum
// over the postings that block covers, at several granularities, and pins
// worker-count determinism (the sharded pass writes disjoint terms).
func TestBuildBlockMaxima(t *testing.T) {
	a, _ := buildBlockFixture(t)
	for _, bs := range []int{1, 7, 128} {
		ix := buildWorkersBlock(a, 0, bs)
		checkBlockTables(t, fmt.Sprintf("block=%d", bs), ix)

		seq := buildWorkersBlock(a, 1, bs)
		if !slices.Equal(seq.blockOffsets, ix.blockOffsets) ||
			!slices.Equal(seq.blockMaxWeight, ix.blockMaxWeight) ||
			!slices.Equal(seq.blockMaxRatio, ix.blockMaxRatio) {
			t.Fatalf("block=%d: tables differ between workers=1 and workers=0", bs)
		}
	}
}

// TestFromPartsBlockValidation: persisted tables bind zero-copy, and parts
// without tables or with malformed ones are rejected.
func TestFromPartsBlockValidation(t *testing.T) {
	a, _ := buildBlockFixture(t)
	built := BuildWorkers(a, 0)
	bound, err := FromParts(a, built.Parts())
	if err != nil {
		t.Fatal(err)
	}
	if &bound.blockOffsets[0] != &built.blockOffsets[0] {
		t.Fatal("FromParts copied persisted block offsets instead of borrowing")
	}
	mutations := []struct {
		name string
		mut  func(p *Parts)
	}{
		{"nil block tables", func(p *Parts) { p.BlockOffsets, p.BlockMaxWeight, p.BlockMaxRatio = nil, nil, nil }},
		{"zero block size", func(p *Parts) { p.BlockSize = 0 }},
		{"short offsets", func(p *Parts) { p.BlockOffsets = p.BlockOffsets[:len(p.BlockOffsets)-1] }},
		{"nonzero first offset", func(p *Parts) {
			bo := slices.Clone(p.BlockOffsets)
			bo[0] = 1
			p.BlockOffsets = bo
		}},
		{"wrong block count", func(p *Parts) { p.BlockSize *= 2 }},
		{"short maxima", func(p *Parts) { p.BlockMaxWeight = p.BlockMaxWeight[:1] }},
	}
	for _, m := range mutations {
		p := built.Parts()
		m.mut(p)
		if _, err := FromParts(a, p); err == nil {
			t.Errorf("%s: FromParts accepted malformed block tables", m.name)
		}
	}
}

// TestSliceRangeBlockMaxima pins that every range engine's block maxima are
// exactly the maxima of its sliced postings — not inherited from the
// source's (differently partitioned) blocks — at several shard counts.
func TestSliceRangeBlockMaxima(t *testing.T) {
	a, c := buildBlockFixture(t)
	// A small block size so most ranges split runs mid-block.
	p := buildWorkersBlock(a, 0, 5).Parts()
	for _, shards := range []int{1, 2, 3, 5, 8} {
		for s := 0; s < shards; s++ {
			lo := c.Len() * s / shards
			hi := c.Len() * (s + 1) / shards
			sliced := p.SliceRange(lo, hi)
			if sliced.BlockSize != p.BlockSize {
				t.Fatalf("shards=%d range %d: block size %d, want %d", shards, s, sliced.BlockSize, p.BlockSize)
			}
			ix, err := FromParts(a, sliced)
			if err != nil {
				t.Fatalf("shards=%d range [%d,%d): %v", shards, lo, hi, err)
			}
			checkBlockTables(t, fmt.Sprintf("shards=%d range [%d,%d)", shards, lo, hi), ix)
		}
	}
}

// TestSearchTopKAppendZeroAlloc pins the steady-state allocation contract:
// after warm-up, the pooled scratch makes a pruned top-k query allocate
// nothing, including the hits page (appended to a caller-reused slice).
func TestSearchTopKAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		// Under the race detector sync.Pool deliberately drops items to
		// exercise slow paths, so the scratch re-allocates and the count
		// is meaningless (the golden checks below still run race-clean
		// via the other block-max tests).
		t.Skip("alloc counts are not meaningful under -race (sync.Pool drops items)")
	}
	a, _ := buildBlockFixture(t)
	ix := BuildWorkers(a, 0)
	qv := a.QueryVector("activity complex formation regulation binding transport rna protein")
	opts := Options{Limit: 10}
	ctx := context.Background()
	dst := make([]Hit, 0, opts.Limit)

	// Warm the pool and pin the result while we're here.
	warm, err := ix.searchTopKAppend(ctx, qv, opts, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) == 0 {
		t.Fatal("fixture query matched nothing")
	}
	diffHits(t, "append path", warm, exhaustiveTopK(t, ix, qv, opts))

	allocs := testing.AllocsPerRun(50, func() {
		var err error
		dst, err = ix.searchTopKAppend(ctx, qv, opts, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state searchTopKAppend allocates %.1f/op, want 0", allocs)
	}
}

// TestTopKStats asserts the visited/skipped counters move and that blocks
// of 8 visit no more candidates than one block per term (a block at least
// as long as the longest posting run, bounded by the global maxima) on the
// same query load.
func TestTopKStats(t *testing.T) {
	a, c := buildBlockFixture(t)
	blocked := buildWorkersBlock(a, 0, 8)
	blockless := buildWorkersBlock(a, 0, c.Len())
	qv := a.QueryVector("activity complex formation regulation binding transport rna protein")
	opts := Options{Limit: 3}
	ctx := context.Background()

	run := func(ix *Index) TopKStats {
		ix.ResetTopKStats()
		for i := 0; i < 5; i++ {
			if _, err := ix.SearchVectorContext(ctx, qv, opts); err != nil {
				t.Fatal(err)
			}
		}
		return ix.TopKStats()
	}
	sb := run(blocked)
	sn := run(blockless)
	if sb.Visited == 0 || sn.Visited == 0 {
		t.Fatalf("no candidates visited: blocked %+v, blockless %+v", sb, sn)
	}
	if sb.Visited > sn.Visited {
		t.Fatalf("block-max visited %d candidates, blockless only %d", sb.Visited, sn.Visited)
	}
	blocked.ResetTopKStats()
	if s := blocked.TopKStats(); s.Visited != 0 || s.Skipped != 0 {
		t.Fatalf("stats after reset = %+v", s)
	}
}
