package store

import (
	"bytes"
	"path/filepath"
	"testing"

	"ctxsearch/internal/citegraph"
	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/prestige"
)

// benchState builds a state an order larger than the unit-test fixture so
// the decode cost is dominated by the score payload, the part the v2 format
// changes. BENCH_PR3.json records the v1-vs-v2 Load numbers.
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
	a := corpus.NewAnalyzer(c)
	cs := contextset.BuildTextBased(index.Build(a), o, contextset.DefaultConfig())
	scores := map[string]prestige.Scores{
		"text":     prestige.ScoreAll(prestige.NewTextScorer(a, prestige.DefaultTextWeights()), cs, 0),
		"citation": prestige.ScoreAll(prestige.NewCitationScorer(c, citegraph.PageRankOpts{}), cs, 0),
	}
	// Index parts and DF ride along for the v4 writers; the gob writers
	// ignore them, so the v1/v2/v3 benchmarks are unaffected.
	ix := index.Build(a)
	return o, &State{ContextSet: cs, Scores: scores, Index: ix.Parts(), DF: a.DF()}
}

func BenchmarkLoad(b *testing.B) {
	o, st := benchState(b)
	var v1, v2 bytes.Buffer
	if err := saveV1(&v1, st); err != nil {
		b.Fatal(err)
	}
	if err := Save(&v2, st); err != nil {
		b.Fatal(err)
	}
	b.Run("v1-maps", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(v1.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := Load(bytes.NewReader(v1.Bytes()), o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("v2-matrix", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(v2.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := Load(bytes.NewReader(v2.Bytes()), o); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOpen pins the tentpole claim of the v4 format: opening a state
// must not scale with the payload. v3-gob decodes every posting and score;
// v4-mmap maps the file and validates the header, section table and matrix
// directory only. "v4-mmap-bind" additionally materializes the context set,
// matrices, index parts and DF (first-touch CRC included) — the full
// engine-ready cost, still free of per-element decoding. BENCH_PR8.json
// records the numbers.
func BenchmarkOpen(b *testing.B) {
	o, st := benchState(b)
	// Freeze score maps so both writers persist the same matrices.
	st.Matrices = make(map[string]*prestige.Matrix, len(st.Scores))
	for name, s := range st.Scores {
		st.Matrices[name] = s.Freeze()
	}
	st.Scores = nil
	dir := b.TempDir()
	v3Path := filepath.Join(dir, "state.v3")
	v4Path := filepath.Join(dir, "state.v4")
	if err := SaveFile(v3Path, st); err != nil {
		b.Fatal(err)
	}
	if err := SaveFileV4(v4Path, st); err != nil {
		b.Fatal(err)
	}
	b.Run("v3-gob", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := LoadFile(v3Path, o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("v4-mmap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := Open(v4Path, o)
			if err != nil {
				b.Fatal(err)
			}
			m.Close()
		}
	})
	b.Run("v4-mmap-bind", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := Open(v4Path, o)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.ContextSet(); err != nil {
				b.Fatal(err)
			}
			for _, name := range m.MatrixNames() {
				if _, err := m.Matrix(name); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := m.IndexParts(); err != nil {
				b.Fatal(err)
			}
			if _, err := m.DF(); err != nil {
				b.Fatal(err)
			}
			m.Close()
		}
	})
}

func BenchmarkSave(b *testing.B) {
	_, st := benchState(b)
	// Pre-freeze so the benchmark measures encoding, not Freeze.
	st.Matrices = make(map[string]*prestige.Matrix, len(st.Scores))
	for name, s := range st.Scores {
		st.Matrices[name] = s.Freeze()
	}
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
