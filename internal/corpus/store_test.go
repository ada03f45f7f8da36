package corpus

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	c, _ := testCorpus(t, 80)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != c.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), c.Len())
	}
	for i := range c.Papers() {
		a, b := c.Papers()[i], got.Papers()[i]
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("paper %d not preserved:\n%+v\n%+v", i, a, b)
		}
	}
	// Indexes must be rebuilt identically.
	for _, p := range c.Papers() {
		if !reflect.DeepEqual(c.CitedBy(p.ID), got.CitedBy(p.ID)) {
			t.Fatalf("CitedBy(%d) differs", p.ID)
		}
	}
	if !reflect.DeepEqual(c.EvidenceTerms(), got.EvidenceTerms()) {
		t.Fatal("evidence terms differ")
	}
}

func TestSaveLoadFile(t *testing.T) {
	c, _ := testCorpus(t, 20)
	path := filepath.Join(t.TempDir(), "corpus.gob")
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != c.Len() {
		t.Fatalf("Len = %d", got.Len())
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage input must fail")
	}
	if _, err := LoadFile("/nonexistent/path/corpus.gob"); err == nil {
		t.Error("missing file must fail")
	}
	// Wrong magic.
	var buf bytes.Buffer
	c, _ := testCorpus(t, 5)
	_ = c.Save(&buf)
	b := buf.Bytes()
	// Corrupt the magic string bytes.
	idx := bytes.Index(b, []byte("ctxsearch-corpus"))
	if idx < 0 {
		t.Fatal("magic not found in encoding")
	}
	b[idx] = 'X'
	if _, err := Load(bytes.NewReader(b)); err == nil {
		t.Error("bad magic must fail")
	}
}

// hostileCorpus is a gob corpus stream whose header declares count papers,
// followed by the given papers.
func hostileCorpus(t testing.TB, count int, papers []*Paper) []byte {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(storeHeader{Magic: "ctxsearch-corpus", Version: storeVersion, Papers: count}); err != nil {
		t.Fatal(err)
	}
	for _, p := range papers {
		if err := enc.Encode(p); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestLoadHostileHeader: the header's paper count comes from the file, so a
// corrupt one is an error — never a makeslice panic or an allocation the
// size of the count.
func TestLoadHostileHeader(t *testing.T) {
	c, _ := testCorpus(t, 5)
	for _, tc := range []struct {
		name   string
		count  int
		papers []*Paper
		want   string
	}{
		{"negative", -1, c.Papers(), "header declares -1 papers"},
		{"huge", 1 << 50, nil, "decoding paper 0"},
		{"more than present", 6, c.Papers(), "decoding paper 5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(hostileCorpus(t, tc.count, tc.papers)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want an error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// FuzzLoadCorpus throws arbitrary bytes at the corpus decoder: Load returns
// a corpus or an error, never panics, and a corpus it returns saves and
// loads back to the same papers.
func FuzzLoadCorpus(f *testing.F) {
	c, _ := testCorpus(f, 4)
	var valid bytes.Buffer
	if err := c.Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add(hostileCorpus(f, -1, nil))
	f.Add(hostileCorpus(f, 1<<50, nil))
	f.Add(hostileCorpus(f, 5, c.Papers()))
	f.Add(hostileCorpus(f, 0, nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := Load(bytes.NewReader(b))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := got.Save(&again); err != nil {
			t.Fatalf("saving a loaded corpus: %v", err)
		}
		back, err := Load(&again)
		if err != nil {
			t.Fatalf("loading a re-saved corpus: %v", err)
		}
		if !reflect.DeepEqual(got.Papers(), back.Papers()) {
			t.Fatal("a loaded corpus does not survive Save and Load")
		}
	})
}
