package store

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ctxsearch/internal/citegraph"
	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/prestige"
)

// fixtureWithIndex builds a complete state — context set, two score
// functions, index parts and DF table — plus the corpus and analyzer the
// re-binding checks need.
func fixtureWithIndex(t testing.TB) (*ontology.Ontology, *corpus.Corpus, *corpus.Analyzer, *State) {
	t.Helper()
	o, err := ontology.Generate(ontology.GenConfig{Seed: 9, NumTerms: 50, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(150))
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	ix, err := index.BuildWorkers(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	cs := contextset.BuildTextBased(ix, o, contextset.DefaultConfig())
	return o, c, a, &State{
		ContextSet: cs,
		Matrices: map[string]*prestige.Matrix{
			"text":     prestige.Score(prestige.NewTextScorer(a, prestige.DefaultTextWeights()), cs, 0, 1),
			"citation": prestige.Score(prestige.NewCitationScorer(c, citegraph.PageRankOpts{}), cs, 0, 1),
		},
		Index: ix.Parts(),
		DF:    a.DF(),
	}
}

func fixture(t *testing.T) (*ontology.Ontology, *State) {
	t.Helper()
	o, _, _, st := fixtureWithIndex(t)
	return o, st
}

// materialize binds every component of an open state, touching (and so
// CRC-checking) every section.
func materialize(m *Mapped) (*State, error) {
	st := &State{Matrices: map[string]*prestige.Matrix{}}
	var err error
	if st.ContextSet, err = m.ContextSet(); err != nil {
		return nil, err
	}
	if st.Index, err = m.IndexParts(); err != nil {
		return nil, err
	}
	if st.DF, err = m.DF(); err != nil {
		return nil, err
	}
	for _, name := range m.matNames {
		if st.Matrices[name], err = m.Matrix(name); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// writeFile puts an image where a path-based Open can find it.
func writeFile(t *testing.T, img []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "state.bin")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSaveLoadFile(t *testing.T) {
	o, st := fixture(t)
	path := filepath.Join(t.TempDir(), "state.bin")
	if err := SaveFile(path, st); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	got, err := materialize(m)
	if err != nil {
		t.Fatal(err)
	}
	assertSameContextSet(t, st.ContextSet, got.ContextSet)
	assertSameMatrices(t, st, got.Matrices)
}

func TestLoadErrors(t *testing.T) {
	o, st := fixture(t)
	if _, err := Open(writeFile(t, []byte("junk")), o); err == nil {
		t.Error("junk must fail")
	}
	if err := Save(bytes.NewBuffer(nil), nil); err == nil {
		t.Error("nil state must fail")
	}
	// A state without its text index could only be served by analysing the
	// corpus again at every boot: the writer refuses it.
	for _, bare := range []*State{
		{ContextSet: st.ContextSet, Matrices: st.Matrices},
		{ContextSet: st.ContextSet, Matrices: st.Matrices, Index: st.Index},
		{ContextSet: st.ContextSet, Matrices: st.Matrices, DF: st.DF},
	} {
		if err := Save(bytes.NewBuffer(nil), bare); err == nil {
			t.Error("a state without index parts and DF table must not save")
		}
	}
	// A context set bound to the wrong ontology must fail.
	other := ontology.New()
	_ = other.Add(ontology.Term{ID: "GO:X", Name: "alien"})
	if err := other.Build(); err != nil {
		t.Fatal(err)
	}
	m, err := Open(writeFile(t, v5Bytes(t, st)), other)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.ContextSet(); err == nil {
		t.Error("wrong ontology must fail")
	}
	if _, err := Open("/nonexistent/state.bin", o); err == nil {
		t.Error("missing file must fail")
	}
}

// nanDecliner writes NaN over the runs of every other context and declines
// them, as the prestige.Scorer contract allows.
type nanDecliner struct{ prestige.Scorer }

func (d nanDecliner) ScoreContext(cs *contextset.ContextSet, ctx ontology.TermID, vals []float64) bool {
	if ctx[len(ctx)-1]%2 == 0 {
		for i := range vals {
			vals[i] = math.NaN()
		}
		return false
	}
	return d.Scorer.ScoreContext(cs, ctx, vals)
}

// TestSaveClearsDeclinedSlots: a state file stores a matrix's whole score
// column, the slots of declined contexts included. Those hold 0 whatever
// the scorer wrote before declining, and the saved bytes are the same at
// workers 1, 2 and 8.
func TestSaveClearsDeclinedSlots(t *testing.T) {
	o, _, a, st := fixtureWithIndex(t)
	sc := nanDecliner{prestige.NewTextScorer(a, prestige.DefaultTextWeights())}
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		m := prestige.Score(sc, st.ContextSet, 0, workers)
		img := v5Bytes(t, &State{ContextSet: st.ContextSet, Matrices: map[string]*prestige.Matrix{"text": m}, Index: st.Index, DF: st.DF})
		if want == nil {
			want = img
		} else if !bytes.Equal(img, want) {
			t.Fatalf("workers %d: state bytes differ from workers 1", workers)
		}
	}
	mapped, err := Open(writeFile(t, want), o)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	m, err := mapped.Matrix("text")
	if err != nil {
		t.Fatal(err)
	}
	if n := m.NumContexts(); n == 0 || n == len(st.ContextSet.Contexts()) {
		t.Fatalf("%d of %d contexts scored: the scorer declines none or all", n, len(st.ContextSet.Contexts()))
	}
	_, vals, _ := m.Column()
	for i, v := range vals {
		if math.IsNaN(v) {
			t.Fatalf("score slot %d of the saved column is NaN", i)
		}
	}
}
