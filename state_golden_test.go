package ctxsearch

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"ctxsearch/internal/store"
	"ctxsearch/internal/vector"
)

// goldenStateSHA256 is the SHA-256 of the flat-v5 state file the text
// pipeline writes for smallConfig. It was recorded from the build that
// computed every paper × context cosine with vector.CosineWithNorms, so it
// pins both "the offline build is deterministic at any worker count" and
// "a faster build still writes the same bytes". A change that is meant to
// alter the file (format, weighting, generator) re-records it. It was last
// re-recorded when paper IDs went to four bytes: the file it pins, with
// sections 4 and 10 widened back to int64, hashes to the value before.
const goldenStateSHA256 = "d10e755059aa57eafe145690fcf7ec899cb3a4eab8d618563eb803fe8acad54e"

// goldenPatternStateSHA256 is the SHA-256 of the state file the pattern
// pipeline writes for smallConfig: the §4 pattern-based context set scored
// by pattern prestige. It was recorded from the build whose positional index
// spelled every token as a string and matched phrases through per-document
// position maps, so it pins "the term-ID pattern matcher writes the same
// bytes" as goldenStateSHA256 pins the text build, and was re-recorded with
// it for four-byte paper IDs.
const goldenPatternStateSHA256 = "f79000cddc3b5b26a99d65677258866249c48c4ce03d2385561d2e3a3545e893"

func TestStateFileGolden(t *testing.T) {
	checkStateFileGolden(t, goldenStateSHA256, func(sys *System) (*ContextSet, *Matrix, string) {
		cs := sys.BuildTextContextSet()
		return cs, sys.ScoreText(cs), "text"
	})
}

func TestPatternStateFileGolden(t *testing.T) {
	checkStateFileGolden(t, goldenPatternStateSHA256, func(sys *System) (*ContextSet, *Matrix, string) {
		cs := sys.BuildPatternContextSet()
		return cs, sys.ScorePattern(cs), "pattern"
	})
}

// checkStateFileGolden builds smallConfig's system at BuildWorkers 1 and 3,
// saves the context set and matrix build returns with the text index and
// dictionary, and compares the file's SHA-256 with want.
func checkStateFileGolden(t *testing.T, want string, build func(*System) (*ContextSet, *Matrix, string)) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("float bits are pinned on amd64 only: other targets may fuse multiply-adds")
	}
	for _, workers := range []int{1, 3} {
		cfg := smallConfig()
		cfg.BuildWorkers = workers
		sys, err := NewSyntheticSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cs, m, name := build(sys)
		st := &store.State{
			ContextSet: cs,
			Matrices:   map[string]*Matrix{name: m},
			Index:      sys.Index().Parts(),
			DF:         sys.Analyzer().DF(),
		}
		path := filepath.Join(t.TempDir(), "state.v5")
		if err := store.SaveFile(path, st); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Fatalf("workers=%d: state file (%d bytes) has SHA-256 %s, want %s", workers, len(data), got, want)
		}
	}
}

// TestFromPartsDictionaryMismatch: the state file's DF section is the frozen
// analyzer's dictionary and its index-terms section names the posting runs,
// so an image whose two term lists differ — a term missing, or one renamed
// in place — must fail to bind instead of serving every query term with
// another term's postings.
func TestFromPartsDictionaryMismatch(t *testing.T) {
	sys, err := NewSyntheticSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cs := sys.BuildTextContextSet()
	m := sys.ScoreText(cs)
	docs, counts := sys.Analyzer().DF().Counts()
	terms := sys.Analyzer().DF().Terms()
	last := len(terms) - 1
	renamed := slices.Clone(terms)
	renamed[last] += "zz"
	for _, tc := range []struct {
		name   string
		terms  []string
		counts []int32
		bind   bool
	}{
		{"same", terms, counts, true},
		{"missing", terms[:last], counts[:last], false},
		{"renamed", renamed, counts, false},
	} {
		df, err := vector.NewDF(docs, tc.terms, tc.counts)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "state.v5")
		st := &store.State{ContextSet: cs, Matrices: map[string]*Matrix{"text": m}, Index: sys.Index().Parts(), DF: df}
		if err := store.SaveFile(path, st); err != nil {
			t.Fatal(err)
		}
		mapped, err := store.Open(path, sys.Ontology)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := mapped.IndexParts()
		if err != nil {
			t.Fatal(err)
		}
		mdf, err := mapped.DF()
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewFrozenSystem(sys.Ontology, sys.Corpus, parts, mdf, sys.Config())
		if (err == nil) != tc.bind {
			t.Errorf("%s: binding returned %v, want bound %v", tc.name, err, tc.bind)
		}
		if err := mapped.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
