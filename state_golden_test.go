package ctxsearch

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ctxsearch/internal/store"
	"ctxsearch/internal/vector"
)

// goldenStateSHA256 is the SHA-256 of the flat-v6 state file the text
// pipeline writes for smallConfig, fingerprint included. It was recorded
// from the build that computed every paper × context cosine with
// vector.CosineWithNorms, so it pins both "the offline build is
// deterministic at any worker count" and "a faster build still writes the
// same bytes". A change that is meant to alter the file (format, weighting,
// generator) re-records it. It was last re-recorded for format version 6:
// the file it pins differs from the version-5 one only in its header (the
// version, and the fingerprint after it) and in lacking sections 6 and 7,
// the per-context bitmaps; every other section kept its kind, length and
// CRC.
const goldenStateSHA256 = "b9aae50c5c6a970abf44dbb0348089da54ed7e125b04dd1bb9a1c6a9f07dfd08"

// goldenPatternStateSHA256 is the SHA-256 of the state file the pattern
// pipeline writes for smallConfig: the §4 pattern-based context set scored
// by pattern prestige. It was recorded from the build whose positional index
// spelled every token as a string and matched phrases through per-document
// position maps, so it pins "the term-ID pattern matcher writes the same
// bytes" as goldenStateSHA256 pins the text build, and is re-recorded with
// it, last for format version 6.
const goldenPatternStateSHA256 = "18dd0731334feacef42105218449415f4cfe965e12303f4c8667ca50a74ae88f"

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
			ContextSet:  cs,
			Matrices:    map[string]*Matrix{name: m},
			Index:       sys.Index().Parts(),
			DF:          sys.Analyzer().DF(),
			Fingerprint: store.Fingerprint(sys.Ontology, sys.Corpus),
		}
		path := filepath.Join(t.TempDir(), "state.v6")
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

// dfSection encodes a DF table as a state file's section 15 holds it: the
// document count, the term count, then each term's length-prefixed string
// and document frequency.
func dfSection(docs int, terms []string, counts []int32) []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(docs))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(terms)))
	for i, t := range terms {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(t)))
		b = append(b, t...)
		b = binary.LittleEndian.AppendUint32(b, uint32(counts[i]))
	}
	return b
}

// withSection returns a copy of a state image whose section id holds
// payload instead: the payload goes past the end of the file, 64-byte
// aligned, and the section's table entry, its CRC32-C and the table's CRC
// are rewritten, so that only the reader's own checks can refuse it. The
// table follows the 56-byte header.
func withSection(img []byte, id uint32, payload []byte) []byte {
	crc := func(b []byte) uint32 { return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)) }
	off := (len(img) + 63) &^ 63
	out := append(append(slices.Clone(img), make([]byte, off-len(img))...), payload...)
	count := int(binary.LittleEndian.Uint32(out[12:]))
	for i := range count {
		e := out[56+32*i:]
		if binary.LittleEndian.Uint32(e) == id {
			binary.LittleEndian.PutUint64(e[8:], uint64(off))
			binary.LittleEndian.PutUint64(e[16:], uint64(len(payload)))
			binary.LittleEndian.PutUint32(e[24:], crc(payload))
		}
	}
	binary.LittleEndian.PutUint32(out[16:], crc(out[56:56+32*count]))
	return out
}

// TestFromPartsDictionaryMismatch: the state file's DF section is the frozen
// analyzer's dictionary and its index-terms section names the posting runs,
// so an image whose two term lists differ — a term missing, or one renamed
// in place — must fail to bind instead of serving every query term with
// another term's postings. Save refuses such a DF table by the term that
// differs, so those images are made by patching section 15 of a good one.
// The DF table also weights every posting, so an image whose table counts
// another number of papers, or a term in none of them, is refused too.
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
	zero := slices.Clone(counts)
	zero[last] = 0
	st := &store.State{ContextSet: cs, Matrices: map[string]*Matrix{"text": m}, Index: sys.Index().Parts(), DF: sys.Analyzer().DF()}
	var good bytes.Buffer
	if err := store.Save(&good, st); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		docs   int
		terms  []string
		counts []int32
		save   string // Save's refusal of the table, "" for none
		bind   string // the refusal binding the patched image, "" for none
	}{
		{"same", docs, terms, counts, "", ""},
		{"missing", docs, terms[:last], counts[:last], "the DF table holds", "terms against a"},
		{"renamed", docs, renamed, counts, "the DF table's is", "the dictionary's is"},
		{"docs", docs + 1, terms, counts, "the DF table counts", "the DF table counts"},
		{"zero", docs, terms, zero, "", "occurs in 0 of"},
	} {
		if df, err := vector.NewDF(tc.docs, tc.terms, tc.counts); err == nil {
			st := &store.State{ContextSet: cs, Matrices: st.Matrices, Index: st.Index, DF: df}
			if err := store.Save(io.Discard, st); (err == nil) != (tc.save == "") || err != nil && !strings.Contains(err.Error(), tc.save) {
				t.Errorf("%s: Save returned %v, want a refusal naming %q", tc.name, err, tc.save)
			}
		}
		path := filepath.Join(t.TempDir(), "state.v5")
		if err := os.WriteFile(path, withSection(good.Bytes(), 15, dfSection(tc.docs, tc.terms, tc.counts)), 0o644); err != nil {
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
		if err == nil {
			_, err = NewFrozenSystem(sys.Ontology, sys.Corpus, parts, mdf, sys.Config())
		}
		if (err == nil) != (tc.bind == "") || err != nil && !strings.Contains(err.Error(), tc.bind) {
			t.Errorf("%s: binding returned %v, want a refusal naming %q", tc.name, err, tc.bind)
		}
		if err := mapped.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
