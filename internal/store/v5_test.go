package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ctxsearch/internal/index"
	"ctxsearch/internal/prestige"
)

// v5Bytes renders the fixture state as the image Save writes.
func v5Bytes(t *testing.T, st *State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sectionIDs lists the section table's IDs in file order.
func sectionIDs(img []byte) []uint32 {
	count := int(binary.LittleEndian.Uint32(img[12:]))
	ids := make([]uint32, count)
	for i := 0; i < count; i++ {
		ids[i] = binary.LittleEndian.Uint32(img[headerSize+i*secHdrSize:])
	}
	return ids
}

// TestV5Deterministic: two v5 saves of the same state are byte-identical.
func TestV5Deterministic(t *testing.T) {
	_, _, _, st := fixtureWithIndex(t)
	if !bytes.Equal(v5Bytes(t, st), v5Bytes(t, st)) {
		t.Fatal("v5 encoding is not deterministic")
	}
}

// TestV5BlockSections: the image of a block-built index carries the four
// block sections and stamps version 5.
func TestV5BlockSections(t *testing.T) {
	_, _, _, st := fixtureWithIndex(t)
	if st.Index.BlockOffsets == nil {
		t.Fatal("fixture index carries no block tables")
	}
	img := v5Bytes(t, st)
	if v := binary.LittleEndian.Uint32(img[8:]); v != version {
		t.Fatalf("image stamps version %d", v)
	}
	ids := sectionIDs(img)
	for _, id := range []uint32{secIdxBlockMeta, secIdxBlockOffsets, secIdxBlockMaxW, secIdxBlockMaxR} {
		if !slices.Contains(ids, id) {
			t.Fatalf("image lacks block section %d", id)
		}
	}
}

// TestOpenV5 exercises the mmap path end to end: open, lazily materialize
// every component and check it against the saved state — the parts carry
// the block tables zero-copy and bind to a live index — then the refcounted
// lifecycle (double Close is idempotent; Retain after the last release
// fails).
func TestOpenV5(t *testing.T) {
	o, _, a, st := fixtureWithIndex(t)
	path := filepath.Join(t.TempDir(), "state.v5")
	if err := SaveFile(path, st); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := m.ContextSet()
	if err != nil {
		t.Fatal(err)
	}
	assertSameContextSet(t, st.ContextSet, cs)
	names := m.matNames
	if want := []string{"citation", "text"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("matrix names %v, want %v", names, want)
	}
	mats := make(map[string]*prestige.Matrix, len(names))
	for _, name := range names {
		if mats[name], err = m.Matrix(name); err != nil {
			t.Fatal(err)
		}
	}
	assertSameMatrices(t, st, mats)
	parts, err := m.IndexParts()
	if err != nil {
		t.Fatal(err)
	}
	if parts.BlockSize != st.Index.BlockSize {
		t.Fatalf("block size %d, want %d", parts.BlockSize, st.Index.BlockSize)
	}
	if !slices.Equal(parts.BlockOffsets, st.Index.BlockOffsets) ||
		!slices.Equal(parts.BlockMaxWeight, st.Index.BlockMaxWeight) ||
		!slices.Equal(parts.BlockMaxRatio, st.Index.BlockMaxRatio) {
		t.Fatal("mapped block tables differ from the saved ones")
	}
	if _, err := index.FromParts(a, parts); err != nil {
		t.Fatalf("mapped v5 parts do not bind: %v", err)
	}
	df, err := m.DF()
	if err != nil {
		t.Fatal(err)
	}
	wantDocs, wantCounts := st.DF.Counts()
	gotDocs, gotCounts := df.Counts()
	if wantDocs != gotDocs || !reflect.DeepEqual(wantCounts, gotCounts) {
		t.Fatal("DF table differs after mmap open")
	}
	// Lifecycle: a retained reference outlives Close; double Close is safe.
	if !m.Retain() {
		t.Fatal("Retain on open mapping failed")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	// Still readable under the outstanding reference.
	if _, err := m.Matrix("text"); err != nil {
		t.Fatalf("read under retained reference after Close: %v", err)
	}
	m.Release()
	if m.Retain() {
		t.Fatal("Retain succeeded after the last reference released")
	}
}

// TestV5RequiresBlockSections: the block-max sections are required — an
// image whose table lacks section 17 opens (payloads are lazy) but its
// index fails to materialize with the missing-section diagnostic.
func TestV5RequiresBlockSections(t *testing.T) {
	o, _, _, st := fixtureWithIndex(t)
	img := v5Bytes(t, st)
	count := int(binary.LittleEndian.Uint32(img[12:]))
	table := img[headerSize : headerSize+count*secHdrSize]
	for i := 0; i < count; i++ {
		if binary.LittleEndian.Uint32(table[i*secHdrSize:]) == secIdxBlockMeta {
			// Drop the entry; data offsets are absolute, so the rest stand.
			copy(table[i*secHdrSize:], table[(i+1)*secHdrSize:])
			binary.LittleEndian.PutUint32(img[12:], uint32(count-1))
			break
		}
	}
	patchTableCRC(img)
	m, err := Open(writeFile(t, img), o)
	if err != nil {
		t.Fatalf("open reads no payload, must succeed: %v", err)
	}
	defer m.Close()
	if _, err := m.IndexParts(); err == nil || !strings.Contains(err.Error(), "missing required section 17") {
		t.Fatalf("image without section 17 not rejected: %v", err)
	}
}

// TestLoadV5 covers the byte-copy read path: the image parsed from a heap
// buffer binds the same state, block tables included.
func TestLoadV5(t *testing.T) {
	o, _, _, st := fixtureWithIndex(t)
	img := v5Bytes(t, st)
	data := alignedBytes(len(img))
	copy(data, img)
	m, err := openBytes(data, false, o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := materialize(m)
	if err != nil {
		t.Fatal(err)
	}
	assertSameContextSet(t, st.ContextSet, got.ContextSet)
	assertSameMatrices(t, st, got.Matrices)
	if !slices.Equal(got.Index.BlockOffsets, st.Index.BlockOffsets) {
		t.Fatal("the byte-copy path dropped the block tables")
	}
}

// TestOpenV5BadBlockMeta: a block-size of zero in the meta section is
// rejected rather than tripping a divide-by-zero downstream.
func TestOpenV5BadBlockMeta(t *testing.T) {
	o, _, _, st := fixtureWithIndex(t)
	img := v5Bytes(t, st)
	count := int(binary.LittleEndian.Uint32(img[12:]))
	for i := 0; i < count; i++ {
		e := img[headerSize+i*secHdrSize:]
		if binary.LittleEndian.Uint32(e[0:]) == secIdxBlockMeta {
			off := binary.LittleEndian.Uint64(e[8:])
			binary.LittleEndian.PutUint32(img[off:], 0)
			// Re-seal the payload so the size check, not the CRC, trips.
			length := binary.LittleEndian.Uint64(e[16:])
			binary.LittleEndian.PutUint32(e[24:], crc32.Checksum(img[off:off+length], castagnoli))
			break
		}
	}
	patchTableCRC(img)
	data := alignedBytes(len(img))
	copy(data, img)
	m, err := openBytes(data, false, o)
	if err != nil {
		t.Fatalf("open reads no payload, must succeed: %v", err)
	}
	if _, err := m.IndexParts(); err == nil || !strings.Contains(err.Error(), "block size") {
		t.Fatalf("zero block size not rejected: %v", err)
	}
}

// TestV5BitFlips corrupts single bytes across the v5 image's meaningful
// regions — the header, every section-table entry, and the first, middle
// and last byte of every payload — and checks each flip is either rejected
// at open or caught when the state materializes. Bytes the reader never
// dereferences are deliberately excluded: inter-section padding and the
// reserved fields of the header and table entries, which no CRC covers.
func TestV5BitFlips(t *testing.T) {
	o, _, _, st := fixtureWithIndex(t)
	img := v5Bytes(t, st)
	count := int(binary.LittleEndian.Uint32(img[12:]))
	var targets []int
	for off := 0; off < headerSize-4; off++ { // header minus its reserved tail
		targets = append(targets, off)
	}
	for i := 0; i < count; i++ {
		base := headerSize + i*secHdrSize
		for off := base; off < base+secHdrSize-4; off++ { // entry minus reserved
			targets = append(targets, off)
		}
	}
	for i := 0; i < count; i++ {
		e := img[headerSize+i*secHdrSize:]
		off := int(binary.LittleEndian.Uint64(e[8:]))
		length := int(binary.LittleEndian.Uint64(e[16:]))
		if length == 0 {
			continue
		}
		targets = append(targets, off, off+length/2, off+length-1)
	}
	for _, off := range targets {
		data := alignedBytes(len(img))
		copy(data, img)
		data[off] ^= 0xFF
		m, err := openBytes(data, false, o)
		if err != nil {
			continue // rejected at open: fine
		}
		if _, err := materialize(m); err == nil {
			t.Fatalf("offset %d: corrupted v5 image materialized without error", off)
		}
	}
}
