package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ctxsearch/internal/contextset"
	"ctxsearch/internal/prestige"
)

// assertSameContextSet checks every accessor-visible property of two
// context sets matches — the contract the freeze/thaw must keep.
func assertSameContextSet(t *testing.T, want, got *contextset.ContextSet) {
	t.Helper()
	if want.Kind() != got.Kind() {
		t.Fatal("kind differs")
	}
	wantCtxs, gotCtxs := want.Contexts(), got.Contexts()
	if !reflect.DeepEqual(wantCtxs, gotCtxs) {
		t.Fatalf("contexts differ: %d vs %d", len(wantCtxs), len(gotCtxs))
	}
	for _, ctx := range wantCtxs {
		if !reflect.DeepEqual(want.Papers(ctx), got.Papers(ctx)) {
			t.Fatalf("papers of %s differ", ctx)
		}
		for _, p := range want.Papers(ctx) {
			if !got.Contains(ctx, p) {
				t.Fatalf("%s lost member %d", ctx, p)
			}
		}
		if want.Decay(ctx) != got.Decay(ctx) {
			t.Fatalf("decay of %s differs", ctx)
		}
		if want.Size(ctx) != got.Size(ctx) {
			t.Fatalf("size of %s differs", ctx)
		}
	}
}

// assertSameMatrices checks element-wise equality of every score function.
func assertSameMatrices(t *testing.T, st *State, got map[string]*prestige.Matrix) {
	t.Helper()
	want := st.Matrices
	if len(want) != len(got) {
		t.Fatalf("matrix count differs: want %d, got %d", len(want), len(got))
	}
	for name, w := range want {
		g := got[name]
		if g == nil {
			t.Fatalf("matrix %q missing", name)
		}
		wc, wv := w.Column()
		gc, gv := g.Column()
		if !slices.Equal(wc, gc) || !slices.Equal(wv, gv) {
			t.Fatalf("matrix %q differs element-wise", name)
		}
	}
}

// TestOpenNoMmapFallback forces the byte-copy path and checks it decodes
// identically (the CI no-mmap job runs the whole package this way too).
func TestOpenNoMmapFallback(t *testing.T) {
	o, _, _, st := fixtureWithIndex(t)
	path := filepath.Join(t.TempDir(), "state.bin")
	if err := SaveFile(path, st); err != nil {
		t.Fatal(err)
	}
	t.Setenv(noMmapEnv, "1")
	m, err := Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.ZeroCopy() {
		t.Fatal("ZeroCopy reported under CTXSEARCH_NO_MMAP=1")
	}
	cs, err := m.ContextSet()
	if err != nil {
		t.Fatal(err)
	}
	assertSameContextSet(t, st.ContextSet, cs)
}

// patchTableCRC recomputes the section-table checksum after a test edits
// table bytes (so the edit under test, not the table CRC, trips).
func patchTableCRC(img []byte) {
	count := binary.LittleEndian.Uint32(img[12:])
	table := img[headerSize : headerSize+int(count)*secHdrSize]
	binary.LittleEndian.PutUint32(img[16:], crc32.Checksum(table, castagnoli))
}

func TestOpenTruncatedSectionTable(t *testing.T) {
	o, _, _, st := fixtureWithIndex(t)
	img := v5Bytes(t, st)
	cut := headerSize + secHdrSize/2 // mid-way through the first entry
	data := alignedBytes(cut)
	copy(data, img[:cut])
	_, err := openBytes(data, false, o)
	if err == nil || !strings.Contains(err.Error(), "truncated section table") {
		t.Fatalf("truncated table not diagnosed: %v", err)
	}
}

func TestOpenTableCRCMismatch(t *testing.T) {
	o, _, _, st := fixtureWithIndex(t)
	img := v5Bytes(t, st)
	img[headerSize+8] ^= 0xFF // corrupt a table entry without re-patching
	data := alignedBytes(len(img))
	copy(data, img)
	_, err := openBytes(data, false, o)
	if err == nil || !strings.Contains(err.Error(), "section table CRC mismatch") {
		t.Fatalf("table corruption not diagnosed: %v", err)
	}
}

func TestOpenUnalignedSection(t *testing.T) {
	o, _, _, st := fixtureWithIndex(t)
	img := v5Bytes(t, st)
	// Nudge the norms (f64) section offset by 4: no longer 8-aligned.
	count := int(binary.LittleEndian.Uint32(img[12:]))
	for i := 0; i < count; i++ {
		e := img[headerSize+i*secHdrSize:]
		if binary.LittleEndian.Uint32(e[0:]) == secIdxNorms {
			binary.LittleEndian.PutUint64(e[8:], binary.LittleEndian.Uint64(e[8:])+4)
			break
		}
	}
	patchTableCRC(img)
	data := alignedBytes(len(img))
	copy(data, img)
	_, err := openBytes(data, false, o)
	if err == nil || !strings.Contains(err.Error(), "unaligned") {
		t.Fatalf("unaligned section not diagnosed: %v", err)
	}
}

func TestOpenSectionBeyondFile(t *testing.T) {
	o, _, _, st := fixtureWithIndex(t)
	img := v5Bytes(t, st)
	// Point the CS docs section past EOF (a truncated copy would look the
	// same: table intact, payload missing).
	count := int(binary.LittleEndian.Uint32(img[12:]))
	for i := 0; i < count; i++ {
		e := img[headerSize+i*secHdrSize:]
		if binary.LittleEndian.Uint32(e[0:]) == secCSDocs {
			// Aligned, so the bounds check (not alignment) is what trips.
			binary.LittleEndian.PutUint64(e[8:], alignUp(uint64(len(img)), secAlign))
			break
		}
	}
	patchTableCRC(img)
	data := alignedBytes(len(img))
	copy(data, img)
	_, err := openBytes(data, false, o)
	if err == nil || !strings.Contains(err.Error(), "truncated?") {
		t.Fatalf("out-of-bounds section not diagnosed: %v", err)
	}
}

// TestOpenSectionLengthWraps: a CRC-valid table entry whose offset is in
// bounds but whose length makes offset+length wrap uint64 is refused at
// open, not accepted and then sliced out of bounds on first touch.
func TestOpenSectionLengthWraps(t *testing.T) {
	o, _, _, st := fixtureWithIndex(t)
	img := v5Bytes(t, st)
	count := int(binary.LittleEndian.Uint32(img[12:]))
	for i := 0; i < count; i++ {
		e := img[headerSize+i*secHdrSize:]
		if binary.LittleEndian.Uint32(e[0:]) == secCSDocs {
			// 2⁶⁴−8: a multiple of the 8-byte element, so only the bounds
			// check can trip.
			binary.LittleEndian.PutUint64(e[16:], ^uint64(7))
			break
		}
	}
	patchTableCRC(img)
	data := alignedBytes(len(img))
	copy(data, img)
	m, err := openBytes(data, false, o)
	if err == nil {
		_, err = m.ContextSet()
	}
	if err == nil || !strings.Contains(err.Error(), "truncated?") {
		t.Fatalf("wrapping section length not diagnosed: %v", err)
	}
}

// withSection returns a copy of img whose section id holds payload instead,
// appended past the end of the file with a valid CRC and the table CRC
// patched — a hostile image no checksum catches.
func withSection(img []byte, id uint32, payload []byte) []byte {
	off := alignUp(uint64(len(img)), secAlign)
	data := alignedBytes(int(off) + len(payload))
	copy(data, img)
	copy(data[off:], payload)
	count := int(binary.LittleEndian.Uint32(data[12:]))
	for i := 0; i < count; i++ {
		e := data[headerSize+i*secHdrSize:]
		if binary.LittleEndian.Uint32(e[0:]) == id {
			binary.LittleEndian.PutUint64(e[8:], off)
			binary.LittleEndian.PutUint64(e[16:], uint64(len(payload)))
			binary.LittleEndian.PutUint32(e[24:], crc32.Checksum(payload, castagnoli))
		}
	}
	patchTableCRC(data)
	return data
}

// TestContextMetaHostileCounts: a CRC-valid context meta section whose
// counts claim more entries than its bytes hold is refused before any count
// sizes an allocation. Each count is 2³²−1 in a section of a few bytes; left
// unchecked, the decay table's make(map, n) ends the process in a fatal
// out-of-memory error no recover can catch.
func TestContextMetaHostileCounts(t *testing.T) {
	o, _, _, st := fixtureWithIndex(t)
	img := v5Bytes(t, st)
	meta := func(counts ...uint32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, 0) // kind
		for _, n := range counts {
			b = binary.LittleEndian.AppendUint32(b, n)
		}
		return append(b, 0, 0, 0, 0)
	}
	const huge = ^uint32(0)
	for _, tc := range []struct {
		name string
		meta []byte
		want string
	}{
		{"contexts", meta(huge), "4294967295 contexts"},
		{"decay", meta(0, huge), "4294967295 decay entries"},
		{"inherited", meta(0, 0, huge), "4294967295 inherited entries"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := openBytes(withSection(img, secCSMeta, tc.meta), false, o)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.ContextSet(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want an error naming %q, got %v", tc.want, err)
			}
		})
	}
}

// TestOpenLazyCRCMismatch: payload corruption is caught on first touch of
// the corrupted section — the open itself (which only reads the header,
// table, and directory) still succeeds.
func TestOpenLazyCRCMismatch(t *testing.T) {
	o, _, _, st := fixtureWithIndex(t)
	img := v5Bytes(t, st)
	// Find the CS docs payload and flip a byte in its middle.
	count := int(binary.LittleEndian.Uint32(img[12:]))
	for i := 0; i < count; i++ {
		e := img[headerSize+i*secHdrSize:]
		if binary.LittleEndian.Uint32(e[0:]) == secCSDocs {
			off := binary.LittleEndian.Uint64(e[8:])
			length := binary.LittleEndian.Uint64(e[16:])
			img[off+length/2] ^= 0xFF
			break
		}
	}
	data := alignedBytes(len(img))
	copy(data, img)
	m, err := openBytes(data, false, o)
	if err != nil {
		t.Fatalf("open must not fault payload pages in: %v", err)
	}
	// The index doesn't touch the corrupted section — still fine.
	if _, err := m.IndexParts(); err != nil {
		t.Fatalf("uncorrupted section failed: %v", err)
	}
	if _, err := m.ContextSet(); err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("payload corruption not caught on first touch: %v", err)
	}
	// A matrix is a column over the set's members, so it reads them too.
	if _, err := m.Matrix("text"); err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("matrix bound over a corrupt member array: %v", err)
	}
}

// TestOpenTooNew: a version from the future names itself and the fix.
func TestOpenTooNew(t *testing.T) {
	o, _, _, st := fixtureWithIndex(t)
	img := v5Bytes(t, st)
	binary.LittleEndian.PutUint32(img[8:], version+1)
	data := alignedBytes(len(img))
	copy(data, img)
	_, err := openBytes(data, false, o)
	if err == nil {
		t.Fatal("future version opened successfully")
	}
	for _, want := range []string{fmt.Sprintf("version %d", version+1), "newer ctxsearch"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("too-new error missing %q: %v", want, err)
		}
	}
	// The same file through a path-based Open (the serve boot path).
	if _, err := Open(writeFile(t, img), o); err == nil || !strings.Contains(err.Error(), "newer ctxsearch") {
		t.Fatalf("Open did not surface the too-new hint: %v", err)
	}
}

// TestOpenTooOld: a version an older writer stamped names itself and the
// fix — version 4 was this container without the block sections, and is no
// longer read.
func TestOpenTooOld(t *testing.T) {
	o, _, _, st := fixtureWithIndex(t)
	img := v5Bytes(t, st)
	binary.LittleEndian.PutUint32(img[8:], 4) // no checksum covers the header's version
	_, err := Open(writeFile(t, img), o)
	if err == nil {
		t.Fatal("older version opened successfully")
	}
	for _, want := range []string{"version 4", "older ctxsearch", "rebuild the state"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("too-old error missing %q: %v", want, err)
		}
	}
}

// TestOpenNotAState: a file that is not the flat container is refused with
// a diagnostic of its own kind — the fix for a state an older binary wrote,
// the size for anything else — never a panic and never a decode attempt.
func TestOpenNotAState(t *testing.T) {
	o, _ := fixture(t)
	// What every v1–v3 writer put first: a gob-encoded header struct.
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(struct {
		Magic   string
		Version int
	}{"ctxsearch-state", 3}); err != nil {
		t.Fatal(err)
	}
	legacy.WriteString(strings.Repeat("payload ", 64))
	for _, tc := range []struct {
		name string
		img  []byte
		want string
	}{
		{"legacy gob", legacy.Bytes(), "gob state files (v1–v3) are no longer supported — rebuild with `ctxsearch build -state …`"},
		{"empty", nil, "not a ctxsearch state file (0 bytes)"},
		{"shorter than the magic", []byte("CTXSRCH"), "not a ctxsearch state file (7 bytes)"},
		{"foreign", []byte("%PDF-1.7 and then some more bytes"), "not a ctxsearch state file (33 bytes)"},
	} {
		_, err := Open(writeFile(t, tc.img), o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want %q, got %v", tc.name, tc.want, err)
		}
	}
}
