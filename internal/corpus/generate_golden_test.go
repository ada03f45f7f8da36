package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ctxsearch/internal/ontology"
)

// goldenCorpusSHA256 is the digest of every field of every paper of the
// serving benchmark's corpus (seed 1, 800 papers over a 160-term ontology),
// computed with the math.Pow sampler and the undersized strings.Builder
// before either was replaced. A generator change that moves one byte of one
// paper — a Zipf rank off by one, an RNG draw consumed or skipped — moves
// this hash, and with it every state file built from a generated corpus.
const goldenCorpusSHA256 = "f452c5a0a51cdae461068b0484f02f4b010c9d3106a25ad5f05d34f8c57303fb"

func goldenCorpus(tb testing.TB) *Corpus {
	tb.Helper()
	o, err := ontology.Generate(ontology.GenConfig{Seed: 1, NumTerms: 160, MaxDepth: 9, SecondParentProb: 0.12})
	if err != nil {
		tb.Fatal(err)
	}
	c, err := Generate(o, DefaultGenConfig(800))
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func TestGenerateGolden(t *testing.T) {
	h := sha256.New()
	for _, p := range goldenCorpus(t).Papers() {
		// %q keeps field boundaries unambiguous whatever the text holds.
		fmt.Fprintf(h, "%d %d %d %q %q %q %q %q %v %q %v\n",
			p.ID, p.PMID, p.Year, p.Title, p.Abstract, p.Body,
			p.IndexTerms, p.Authors, p.References, p.Topics, p.Evidence)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenCorpusSHA256 {
		t.Fatalf("generated corpus SHA-256 = %s, want %s", got, goldenCorpusSHA256)
	}
}

// TestZipfRankMatchesPow holds the table-driven sampler to its definition,
// powRank, on seeded draws and — where a rounding slip would show — on both
// sides of every cut: one ulp away, inside the margin that falls back to
// math.Pow, and just outside it.
func TestZipfRankMatchesPow(t *testing.T) {
	tab := backgroundRanks
	n := len(backgroundVocab)
	check := func(u float64) {
		t.Helper()
		if u < 0 || u >= 1 {
			return
		}
		if got, want := tab.rank(u), powRank(n, u); got != want {
			t.Fatalf("rank(%v) = %d, powRank = %d", u, got, want)
		}
	}
	draws := 10_000_000
	if testing.Short() {
		draws /= 10
	}
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < draws; i++ {
		check(rng.Float64())
	}
	for _, cut := range tab.cuts {
		check(cut)
		for _, d := range []float64{1e-13, 2e-12} {
			check(cut - d)
			check(cut + d)
		}
		check(math.Nextafter(cut, 0))
		check(math.Nextafter(cut, 2))
	}
	check(0)
	check(math.Nextafter(1, 0))
}
