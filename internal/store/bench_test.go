package store

import (
	"bytes"
	"path/filepath"
	"testing"

	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/prestige"
)

// benchState builds a state an order larger than the unit-test fixture so
// the cost is dominated by the payload, not the header.
func benchState(b *testing.B) (*ontology.Ontology, *State) {
	b.Helper()
	o, err := ontology.Generate(ontology.GenConfig{Seed: 9, NumTerms: 200, MaxDepth: 7})
	if err != nil {
		b.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(800))
	if err != nil {
		b.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	ix, err := index.BuildWorkers(a, 0)
	if err != nil {
		b.Fatal(err)
	}
	cs := contextset.BuildTextBased(ix, o, 0)
	return o, &State{
		ContextSet: cs,
		Matrices: map[string]*prestige.Matrix{
			"text":     prestige.Score(prestige.NewTextScorer(a), cs, 0, 1),
			"citation": prestige.Score(prestige.NewCitationScorer(c), cs, 0, 1),
		},
		Index: ix.Parts(),
		DF:    a.DF(),
	}
}

// BenchmarkOpen pins the tentpole claim of the format: opening a state must
// not scale with the payload. "mmap" maps the file and validates the
// header, section table and matrix directory only; "mmap-bind" additionally
// materializes the context set, matrices, index parts and DF (first-touch
// CRC included) — the full engine-ready cost, still free of per-element
// decoding.
func BenchmarkOpen(b *testing.B) {
	o, st := benchState(b)
	path := filepath.Join(b.TempDir(), "state.bin")
	if err := SaveFile(path, st); err != nil {
		b.Fatal(err)
	}
	b.Run("mmap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := Open(path, o)
			if err != nil {
				b.Fatal(err)
			}
			m.Close()
		}
	})
	b.Run("mmap-bind", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := Open(path, o)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := materialize(m); err != nil {
				b.Fatal(err)
			}
			m.Close()
		}
	})
}

func BenchmarkSave(b *testing.B) {
	_, st := benchState(b)
	var buf bytes.Buffer
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Save(&buf, st); err != nil {
			b.Fatal(err)
		}
	}
}
