package store

import (
	"bytes"
	"encoding/gob"
	"io"
	"path/filepath"
	"reflect"
	"testing"

	"ctxsearch/internal/citegraph"
	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/prestige"
)

func fixture(t *testing.T) (*ontology.Ontology, *State) {
	t.Helper()
	o, err := ontology.Generate(ontology.GenConfig{Seed: 9, NumTerms: 50, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(150))
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzer(c)
	cs := contextset.BuildTextBased(index.Build(a), o, contextset.DefaultConfig())
	scores := map[string]prestige.Scores{
		"text":     prestige.ScoreAll(prestige.NewTextScorer(a, prestige.DefaultTextWeights()), cs, 0),
		"citation": prestige.ScoreAll(prestige.NewCitationScorer(c, citegraph.PageRankOpts{}), cs, 0),
	}
	return o, &State{ContextSet: cs, Scores: scores}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	o, st := fixture(t)
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, o)
	if err != nil {
		t.Fatal(err)
	}
	// Context set state preserved.
	if got.ContextSet.Kind() != st.ContextSet.Kind() {
		t.Fatal("kind lost")
	}
	wantCtxs := st.ContextSet.Contexts()
	gotCtxs := got.ContextSet.Contexts()
	if !reflect.DeepEqual(wantCtxs, gotCtxs) {
		t.Fatalf("contexts differ: %d vs %d", len(wantCtxs), len(gotCtxs))
	}
	for _, ctx := range wantCtxs {
		if !reflect.DeepEqual(st.ContextSet.Papers(ctx), got.ContextSet.Papers(ctx)) {
			t.Fatalf("papers of %s differ", ctx)
		}
		wr, wok := st.ContextSet.Representative(ctx)
		gr, gok := got.ContextSet.Representative(ctx)
		if wok != gok || wr != gr {
			t.Fatalf("representative of %s differs", ctx)
		}
		for _, p := range st.ContextSet.Papers(ctx) {
			if st.ContextSet.AssignScore(ctx, p) != got.ContextSet.AssignScore(ctx, p) {
				t.Fatalf("assign score of %d in %s differs", p, ctx)
			}
		}
		if st.ContextSet.Decay(ctx) != got.ContextSet.Decay(ctx) {
			t.Fatalf("decay of %s differs", ctx)
		}
	}
	// Scores preserved exactly: the v2 file carries the frozen matrices,
	// and thawing them must reproduce the original maps bit for bit.
	if got.Scores != nil {
		t.Fatal("v2 load must not populate the map form")
	}
	if len(got.Matrices) != len(st.Scores) {
		t.Fatalf("matrices lost: %d vs %d score functions", len(got.Matrices), len(st.Scores))
	}
	for name, want := range st.Scores {
		m := got.Matrices[name]
		if m == nil {
			t.Fatalf("matrix %q missing", name)
		}
		if !reflect.DeepEqual(want, m.Thaw()) {
			t.Fatalf("scores of %q differ after round trip", name)
		}
	}
}

// saveV1 writes the legacy v1 format (nested score maps) the way the
// pre-matrix Save did — the backward-compat fixture generator.
func saveV1(w io.Writer, st *State) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(header{Magic: "ctxsearch-state", Version: versionV1}); err != nil {
		return err
	}
	return enc.Encode(payloadV1{Snapshot: st.ContextSet.Snapshot(), Scores: st.Scores})
}

func TestLoadV1BackwardCompat(t *testing.T) {
	o, st := fixture(t)
	var buf bytes.Buffer
	if err := saveV1(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, o)
	if err != nil {
		t.Fatalf("v1 file must still load: %v", err)
	}
	// v1 maps survive verbatim and are frozen into matrices on load.
	if !reflect.DeepEqual(st.Scores, got.Scores) {
		t.Fatal("v1 scores differ after load")
	}
	for name, want := range st.Scores {
		m := got.Matrices[name]
		if m == nil {
			t.Fatalf("v1 load did not freeze %q", name)
		}
		if !reflect.DeepEqual(want, m.Thaw()) {
			t.Fatalf("frozen %q differs from v1 map", name)
		}
	}
}

// saveV2 writes a v2-version header over the shared v2/v3 payload shape —
// the backward-compat fixture for files written before row maxima joined
// the matrix wire. (The matrices here still encode maxima, which a real v2
// writer omitted; the matrix-level no-RowMax fallback is pinned in the
// prestige package. This test covers the version gate.)
func saveV2(w io.Writer, st *State) error {
	mats := make(map[string]*prestige.Matrix, len(st.Scores))
	for name, s := range st.Scores {
		mats[name] = s.Freeze()
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(header{Magic: "ctxsearch-state", Version: versionV2}); err != nil {
		return err
	}
	return enc.Encode(payloadV2{Snapshot: st.ContextSet.Snapshot(), Matrices: mats})
}

func TestLoadV2BackwardCompat(t *testing.T) {
	o, st := fixture(t)
	var buf bytes.Buffer
	if err := saveV2(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, o)
	if err != nil {
		t.Fatalf("v2 file must still load: %v", err)
	}
	if got.Scores != nil {
		t.Fatal("v2 load must not populate the map form")
	}
	for name, want := range st.Scores {
		m := got.Matrices[name]
		if m == nil {
			t.Fatalf("matrix %q missing from v2 load", name)
		}
		if !reflect.DeepEqual(want, m.Thaw()) {
			t.Fatalf("scores of %q differ after v2 load", name)
		}
	}
}

func TestV2SmallerThanV1(t *testing.T) {
	_, st := fixture(t)
	var v1, v2 bytes.Buffer
	if err := saveV1(&v1, st); err != nil {
		t.Fatal(err)
	}
	if err := Save(&v2, st); err != nil {
		t.Fatal(err)
	}
	if v2.Len() >= v1.Len() {
		t.Fatalf("v2 state (%d bytes) not smaller than v1 (%d bytes)", v2.Len(), v1.Len())
	}
	t.Logf("state size: v1=%d bytes, v2=%d bytes (%.1f%% of v1)",
		v1.Len(), v2.Len(), 100*float64(v2.Len())/float64(v1.Len()))
}

func TestSaveLoadFile(t *testing.T) {
	o, st := fixture(t)
	path := filepath.Join(t.TempDir(), "state.gob")
	if err := SaveFile(path, st); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Matrices) != len(st.Scores) {
		t.Fatal("matrices lost")
	}
	for name := range st.Scores {
		if got.Matrix(name) == nil {
			t.Fatalf("matrix %q lost", name)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	o, st := fixture(t)
	if _, err := Load(bytes.NewReader([]byte("junk")), o); err == nil {
		t.Error("junk must fail")
	}
	if err := Save(bytes.NewBuffer(nil), nil); err == nil {
		t.Error("nil state must fail")
	}
	// Snapshot bound to the wrong ontology must fail.
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	other := ontology.New()
	_ = other.Add(ontology.Term{ID: "GO:X", Name: "alien"})
	if err := other.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, other); err == nil {
		t.Error("wrong ontology must fail")
	}
	if _, err := LoadFile("/nonexistent/state.gob", o); err == nil {
		t.Error("missing file must fail")
	}
}
