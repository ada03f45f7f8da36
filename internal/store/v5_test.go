package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/prestige"
)

// v5Bytes renders the fixture state as the image Save writes.
func v5Bytes(t testing.TB, st *State) []byte {
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

// retiredSectionIDs are the sections earlier writers emitted (see
// format.go); the block-max ones, 13, 14 and 17–20, are last.
var retiredSectionIDs = []uint32{5, 6, 7, 8, 9, 10, 11, 21, 101, 102, 104, 13, 14, 17, 18, 19, 20}

// decodeSections lists an image's sections in table order, payloads
// aliasing img — the input writeSections lays out again byte for byte.
func decodeSections(img []byte) []sectionData {
	count := len(sectionIDs(img))
	secs := make([]sectionData, 0, count)
	for i := 0; i < count; i++ {
		e := img[headerSize+i*secHdrSize:]
		off := binary.LittleEndian.Uint64(e[8:])
		secs = append(secs, sectionData{
			id:   binary.LittleEndian.Uint32(e[0:]),
			kind: binary.LittleEndian.Uint32(e[4:]),
			data: img[off : off+binary.LittleEndian.Uint64(e[16:])],
		})
	}
	return secs
}

// perPosting returns the parts' postings in the layout version 6 stored:
// each term's run of ascending doc IDs at offsets[t]:offsets[t+1]
// (section 9), the doc IDs (section 10) and, aligned with them, each
// posting's TF (section 21).
func perPosting(p *index.Parts) (offsets []int32, docs []corpus.PaperID, tf []uint16) {
	type posting struct {
		doc corpus.PaperID
		tf  uint16
	}
	offsets = make([]int32, len(p.First))
	var run []posting
	for t := range len(p.First) - 1 {
		run = run[:0]
		for s := p.First[t]; s < p.First[t+1]; s++ {
			for _, d := range p.Docs[p.Start[s]:p.Start[s+1]] {
				run = append(run, posting{d, p.TF[s]})
			}
		}
		slices.SortFunc(run, func(a, b posting) int { return cmp.Compare(a.doc, b.doc) })
		for _, e := range run {
			docs, tf = append(docs, e.doc), append(tf, e.tf)
		}
		offsets[t+1] = int32(len(docs))
	}
	return offsets, docs, tf
}

// withRetiredSections lays img out again with retired sections placed as
// earlier writers placed them. Right after the member IDs (4) go the
// assignment scores (5), one float64 per member; nothing ever read their
// values, so each is 1. Right after each matrix's score column (base+3)
// go its row maxima (base+4): each scored context's largest score over its
// members, 0 for none above it. Right after the matrix directory (16) goes
// the index term dictionary (8), the DF table's terms again, and after it
// the per-posting runs of version 6 (sections 9, 10 and 21; see
// perPosting). Right after the norms go the sections the block-max
// evaluator used, computed as it did over those runs: per-term maximum
// posting weight (13) and weight/norm ratio (14), then a block size of 128
// (17), per-term block offsets (18) and per-block maxima (19, 20).
func withRetiredSections(t testing.TB, img []byte, st *State) []byte {
	t.Helper()
	const blockSize = 128
	p, idf := st.Index, st.DF.IDFs()
	offsets, docs, tf := perPosting(p)
	nTerms := len(p.First) - 1
	maxW, maxR := make([]float64, nTerms), make([]float64, nTerms)
	blockOffs := make([]int32, nTerms+1)
	var blockW, blockR []float64
	for term := 0; term < nTerms; term++ {
		for k := offsets[term]; k < offsets[term+1]; k++ {
			w, r := (1+math.Log(float64(tf[k])))*idf[term], 0.0
			if dn := p.Norms[docs[k]]; dn > 0 {
				r = w / dn
			}
			if (k-offsets[term])%blockSize == 0 {
				blockW, blockR = append(blockW, 0), append(blockR, 0)
			}
			b := len(blockW) - 1
			maxW[term], maxR[term] = max(maxW[term], w), max(maxR[term], r)
			blockW[b], blockR[b] = max(blockW[b], w), max(blockR[b], r)
		}
		blockOffs[term+1] = int32(len(blockW))
	}
	var dict builder
	dict.u32(uint32(nTerms))
	for _, term := range st.DF.Terms() {
		dict.str(term)
	}
	f := st.ContextSet.Freeze()
	names := make([]string, 0, len(st.Matrices))
	for name := range st.Matrices {
		names = append(names, name)
	}
	slices.Sort(names)
	rowMax := make(map[uint32][]float64, len(names)) // by score column (base+3)
	for i, name := range names {
		ctxs, vals := st.Matrices[name].Column()
		maxima := make([]float64, len(ctxs))
		for r, ctx := range ctxs {
			j, _ := slices.BinarySearch(f.Ctxs, ctx)
			for _, v := range vals[f.Offsets[j]:f.Offsets[j+1]] {
				maxima[r] = max(maxima[r], v)
			}
		}
		rowMax[secMatrixBase+secMatrixStride*uint32(i)+matVals] = maxima
	}
	var secs []sectionData
	for _, s := range decodeSections(img) {
		secs = append(secs, s)
		if s.id == secCSDocs {
			scores := make([]float64, len(s.data)/4)
			for i := range scores {
				scores[i] = 1
			}
			secs = append(secs, sectionData{5, kindF64, encodeF64s(scores)})
		}
		if maxima, ok := rowMax[s.id]; ok {
			secs = append(secs, sectionData{s.id + 1, kindF64, encodeF64s(maxima)}) // base+4
		}
		if s.id == secMatrixDir {
			secs = append(secs,
				sectionData{8, kindBytes, dict.b},
				sectionData{9, kindI32, encode32s(offsets)},
				sectionData{10, kindI32, encode32s(docs)},
				sectionData{21, kindU16, encodeU16s(tf)})
		}
		if s.id == secIdxNorms {
			secs = append(secs,
				sectionData{13, kindF64, encodeF64s(maxW)},
				sectionData{14, kindF64, encodeF64s(maxR)},
				sectionData{17, kindBytes, binary.LittleEndian.AppendUint32(nil, blockSize)},
				sectionData{18, kindI32, encode32s(blockOffs)},
				sectionData{19, kindF64, encodeF64s(blockW)},
				sectionData{20, kindF64, encodeF64s(blockR)})
		}
	}
	var buf bytes.Buffer
	if err := writeSections(&buf, st.Fingerprint, secs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOpenIgnoresRetiredSections: the writer stamps Version and emits no
// retired section, and an image that carries the assignment scores of the
// first version-6 writer, the per-posting runs of version 6, the six
// sections the block-max evaluator used, and the index term dictionary and
// matrix row maxima of the first version-7 writer opens, binds and serves
// the page the fresh image serves: a reader ignores a section it never
// asks for.
func TestOpenIgnoresRetiredSections(t *testing.T) {
	o, c, a, st := fixtureWithIndex(t)
	img := v5Bytes(t, st)
	if v := binary.LittleEndian.Uint32(img[8:]); v != Version {
		t.Fatalf("image stamps version %d", v)
	}
	for _, id := range retiredSectionIDs {
		if slices.Contains(sectionIDs(img), id) {
			t.Fatalf("the writer emitted retired section %d", id)
		}
	}
	var plain bytes.Buffer
	if err := writeSections(&plain, st.Fingerprint, decodeSections(img)); err != nil || !bytes.Equal(plain.Bytes(), img) {
		t.Fatalf("decoding and laying out the sections again does not reproduce the image (%v)", err)
	}
	old := withRetiredSections(t, img, st)
	if got := len(sectionIDs(old)); got != len(sectionIDs(img))+11+len(st.Matrices) {
		t.Fatalf("image with retired sections has %d sections", got)
	}
	query := c.Papers()[0].Title
	page := func(img []byte) []index.Hit {
		t.Helper()
		m, err := Open(writeFile(t, img), o)
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
		ix, err := index.FromParts(a, got.Index)
		if err != nil {
			t.Fatal(err)
		}
		return ix.Search(query, index.Options{Limit: 10})
	}
	want := page(img)
	if len(want) == 0 {
		t.Fatalf("query %q finds nothing", query)
	}
	if got := page(old); !slices.Equal(got, want) {
		t.Fatalf("image with retired sections serves\n%v\nwant\n%v", got, want)
	}
}

// TestOpenRefusesV5: a file of an older version — version 7, whose context
// meta section still listed the representatives, version 6, whose postings
// held one TF each (sections 9, 10 and 21), or version 5, from before the
// per-context bitmaps (sections 6 and 7) went and the header gained the
// fingerprint — is refused as a whole, naming its version, this binary's
// and the rebuild, on the mapped and the byte-copy path alike. The version
// is the first field the reader checks, so nothing of the older layout is
// ever parsed.
func TestOpenRefusesV5(t *testing.T) {
	o, _, _, st := fixtureWithIndex(t)
	for _, ver := range []uint32{5, 6, 7} {
		img := v5Bytes(t, st)
		binary.LittleEndian.PutUint32(img[8:], ver)
		for _, noMmap := range []string{"", "1"} {
			t.Setenv(noMmapEnv, noMmap)
			_, err := Open(writeFile(t, img), o)
			for _, want := range []string{fmt.Sprintf("version %d is older than this binary reads (%d)", ver, Version), "ctxsearch build -state"} {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("CTXSEARCH_NO_MMAP=%q: want an error naming %q, got %v", noMmap, want, err)
				}
			}
		}
	}
}

// TestV5Deterministic: two v5 saves of the same state are byte-identical.
func TestV5Deterministic(t *testing.T) {
	_, _, _, st := fixtureWithIndex(t)
	if !bytes.Equal(v5Bytes(t, st), v5Bytes(t, st)) {
		t.Fatal("v5 encoding is not deterministic")
	}
}

// TestOpenV5 exercises the mmap path end to end: open, lazily materialize
// every component and check it against the saved state — the parts bind to
// a live index — then the refcounted lifecycle (double Close is idempotent; Retain after the last release
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
	if !reflect.DeepEqual(parts, st.Index) {
		t.Fatal("mapped index parts differ from the saved ones")
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

// TestLoadV5 covers the byte-copy read path: the image parsed from a heap
// buffer binds the same state, index parts included.
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
	if !reflect.DeepEqual(got.Index, st.Index) {
		t.Fatal("the byte-copy path changed the index parts")
	}
}

// TestV5BitFlips corrupts single bytes across the v5 image's meaningful
// regions — the header, every section-table entry, and the first, middle
// and last byte of every payload — and checks each flip is either rejected
// at open or caught when the state materializes. Bytes the reader never
// dereferences are deliberately excluded: inter-section padding, the
// reserved fields of the header and table entries, which no CRC covers, and
// the fingerprint, which Open hands to its caller to compare.
func TestV5BitFlips(t *testing.T) {
	o, _, _, st := fixtureWithIndex(t)
	img := v5Bytes(t, st)
	count := int(binary.LittleEndian.Uint32(img[12:]))
	var targets []int
	for off := 0; off < 20; off++ { // header before its reserved field
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
