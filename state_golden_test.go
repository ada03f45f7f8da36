package ctxsearch

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
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

// goldenStateSHA256 is the SHA-256 of the flat-v8 state file the text
// pipeline writes for smallConfig, fingerprint included. It was recorded
// from the build that computed every paper × context cosine with
// vector.CosineWithNorms, so it pins both "the offline build is
// deterministic at any worker count" and "a faster build still writes the
// same bytes". A change that is meant to alter the file (format, weighting,
// generator) re-records it. It was last re-recorded when the context meta
// section (1) stopped listing each context's representative, which the text
// scorer now chooses from the evidence: section 1 lost its count and 57
// (term, paper) entries, the header says version 8, and every other section
// kept its kind, length and CRC. Inserting the block again, with the papers
// contextset.Representative chooses, and stamping version 7 reproduces the
// previous file, SHA-256 d07dab37…, byte for byte.
const goldenStateSHA256 = "783166b288d6ab3768553c17cbf15987dc33c6c70840a2ee1896c1af5c108c9c"

// goldenPatternStateSHA256 is the SHA-256 of the state file the pattern
// pipeline writes for smallConfig: the §4 pattern-based context set scored
// by pattern prestige. It was recorded from the build whose positional index
// spelled every token as a string and matched phrases through per-document
// position maps, so it pins "the term-ID pattern matcher writes the same
// bytes" as goldenStateSHA256 pins the text build, and is re-recorded with
// it: its section 1 lost only the representatives' zero count (previously
// 52756d26…).
const goldenPatternStateSHA256 = "7555c28ea3eed65d0f2e3b6a6089c41c42c8427244bb11bcf46aba729e58ac22"

// goldenMinContextSize is the small-context cutoff both pinned files were
// recorded at: contexts of more than 3 papers are scored, where
// smallConfig's 220 papers derive a cutoff of 5.
const goldenMinContextSize = 3

// goldenStateSections and goldenPatternStateSections are the section
// tables of the two pinned files, one row per section in table order: id,
// element kind, data length and CRC32-C. A re-record that moves a SHA-256
// shows here which sections moved with it.
const (
	goldenStateSections = `
2 0 802 2ffc9d45
1 0 244 f3c7caf6
3 1 232 94d05463
4 1 16328 309768f6
100 5 228 c8822427
103 3 32656 0c70b3de
16 0 16 221a903a
22 1 2152 97a510d4
23 1 11404 5300474c
24 6 5700 cfc1f686
25 1 99756 2b5eb20b
12 3 1760 70e1facf
15 0 7324 747f7d2d
`
	goldenPatternStateSections = `
2 0 802 2ffc9d45
1 0 244 3d54bc97
3 1 232 9f5f27ca
4 1 19032 6cdfe237
100 5 228 c8822427
103 3 38064 b544c400
16 0 19 0470e3ab
22 1 2152 97a510d4
23 1 11404 5300474c
24 6 5700 cfc1f686
25 1 99756 2b5eb20b
12 3 1760 70e1facf
15 0 7324 747f7d2d
`
)

func TestStateFileGolden(t *testing.T) {
	checkStateFileGolden(t, goldenStateSHA256, goldenStateSections, func(sys *System) (*Matrix, string) {
		return sys.score(sys.TextScorer(), sys.BuildTextContextSet(), goldenMinContextSize), "text"
	})
}

func TestPatternStateFileGolden(t *testing.T) {
	checkStateFileGolden(t, goldenPatternStateSHA256, goldenPatternStateSections, func(sys *System) (*Matrix, string) {
		return sys.score(sys.PatternScorer(), sys.BuildPatternContextSet(), goldenMinContextSize), "pattern"
	})
}

// checkStateFileGolden builds smallConfig's system at BuildWorkers 1 and 3,
// saves the matrix build returns with SaveState, and compares the file's section table with wantSections and
// its SHA-256 with want.
func checkStateFileGolden(t *testing.T, want, wantSections string, build func(*System) (*Matrix, string)) {
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
		m, name := build(sys)
		path := filepath.Join(t.TempDir(), "state.v8")
		if err := SaveState(path, sys, name, m); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := sectionTable(data); got != strings.TrimSpace(wantSections) {
			t.Fatalf("workers=%d: state file has section table\n%s\nwant\n%s", workers, got, strings.TrimSpace(wantSections))
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Fatalf("workers=%d: state file (%d bytes) has SHA-256 %s, want %s", workers, len(data), got, want)
		}
	}
}

// sectionTable renders a state image's section table one row per section,
// in table order: id, element kind, data length and CRC32-C (hex). The
// table follows the 56-byte header.
func sectionTable(img []byte) string {
	var rows []string
	for i := range int(binary.LittleEndian.Uint32(img[12:])) {
		e := img[56+32*i:]
		rows = append(rows, fmt.Sprintf("%d %d %d %08x",
			binary.LittleEndian.Uint32(e), binary.LittleEndian.Uint32(e[4:]),
			binary.LittleEndian.Uint64(e[16:]), binary.LittleEndian.Uint32(e[24:])))
	}
	return strings.Join(rows, "\n")
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
// analyzer's dictionary, and it numbers the terms whose posting segments
// the index sections hold, so an image whose table holds another number of
// terms than the index — a term missing — must fail to bind instead of
// serving every query term with another term's postings. Save refuses such
// a DF table, so the images are made by patching section 15 of a good one.
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
		{"missing", docs, terms[:last], counts[:last], "the DF table holds", "first segments, want"},
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

// TestOpenState: OpenState binds the state SaveState wrote over the same
// inputs — answering as the built system does and timing its stages in
// the order the -v summary prints them — and refuses the state when handed
// another seed's ontology and corpus, naming both fingerprints.
func TestOpenState(t *testing.T) {
	sys := testSystem(t)
	m := sys.ScoreText(sys.BuildTextContextSet())
	path := filepath.Join(t.TempDir(), "state.bin")
	if err := SaveState(path, sys, "text", m); err != nil {
		t.Fatal(err)
	}
	fsys, fm, mapped, err := OpenState(path, sys.Ontology, sys.Corpus, "text", sys.Config())
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	q := sys.Ontology.Term(m.Contexts()[0]).Name
	want, got := sys.Engine(m).Search(q, SearchOptions{}), fsys.Engine(fm).Search(q, SearchOptions{})
	if len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%q: opened state answers %v, built system %v", q, got, want)
	}
	summary, last := fsys.BuildStats().Summary(), -1
	for _, stage := range []string{"bind-index", "fingerprint", "state-map"} {
		i := strings.Index(summary, "\n  "+stage)
		if i <= last {
			t.Fatalf("stage %s missing or out of order:\n%s", stage, summary)
		}
		last = i
	}

	cfg := smallConfig()
	cfg.Seed = 2
	other, err := NewSyntheticSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = OpenState(path, other.Ontology, other.Corpus, "text", cfg)
	for _, fp := range [][32]byte{store.Fingerprint(sys.Ontology, sys.Corpus), store.Fingerprint(other.Ontology, other.Corpus)} {
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%x", fp)) {
			t.Fatalf("a seed-1 state opened over seed 2's inputs: err = %v, want one naming fingerprint %x", err, fp)
		}
	}
}
