package store

import (
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/search"
	"ctxsearch/internal/vector"
)

// patchImage writes patch into one region of img: the table entry (entry
// set) or the payload of the section with the given ID, or the header when
// the image has no such section. The position is taken modulo the region's
// length, a negative one counting from its end, and the patch is cut at the
// region's end. It then seals the image — every section's CRC over the
// extent its entry now names, then the table CRC — so that the reader's
// structural checks, not its checksums, meet the hostile bytes.
func patchImage(img []byte, id uint32, entry bool, at int32, patch []byte) {
	region := img[:headerSize]
	for i, sid := range sectionIDs(img) {
		if sid != id {
			continue
		}
		region = img[headerSize+i*secHdrSize:][:secHdrSize]
		if !entry {
			off, n := binary.LittleEndian.Uint64(region[8:]), binary.LittleEndian.Uint64(region[16:])
			region = img[off : off+n]
		}
		break
	}
	if len(region) == 0 {
		return
	}
	pos := int(at) % len(region)
	if pos < 0 {
		pos += len(region)
	}
	copy(region[pos:], patch)

	count := binary.LittleEndian.Uint32(img[12:])
	if count > maxSections || headerSize+int(count)*secHdrSize > len(img) {
		return // the open refuses the table before any CRC matters
	}
	for i := 0; i < int(count); i++ {
		e := img[headerSize+i*secHdrSize:]
		off, n := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		if off <= uint64(len(img)) && n <= uint64(len(img))-off {
			binary.LittleEndian.PutUint32(e[24:], crc32.Checksum(img[off:off+n], castagnoli))
		}
	}
	patchTableCRC(img)
}

// FuzzOpenBytes patches a valid 150-paper image and seals its CRCs (see
// patchImage). Open, every materializer — context set, index parts, DF
// table, each matrix — and index.FromParts must each return an error or a
// component; none may panic. A set that binds must answer ContextsOf for
// every paper, an index that binds must answer a query over its whole
// dictionary, which walks every posting, and an engine over a matrix and
// index that bind must search every context the matrix scores. The
// checked-in seeds hold decreasing posting offsets, a last offset past the
// docs, a term dictionary whose count overflows its section, a section that
// overlaps the header, four hostile TF columns (section 21: a TF of 0, an
// odd length, the column relabelled uint32, a column shorter than the
// docs), and three hostile member runs (section 4: a negative member, a run
// out of order, a member at the paper count). The seeds added below patch
// a posting doc, relabel the posting docs' section with another 4-byte
// element kind, which the kind check must refuse, and relabel a section
// with the retired element kind 2.
func FuzzOpenBytes(f *testing.F) {
	o, _, a, st := fixtureWithIndex(f)
	img := v5Bytes(f, st)
	f.Add(uint32(secIdxDocs), false, int32(0), []byte{0xff})
	f.Add(uint32(secIdxDocs), true, int32(4), []byte{byte(kindU32)})
	f.Add(uint32(secCSDocs), true, int32(4), []byte{2})
	f.Fuzz(func(t *testing.T, id uint32, entry bool, at int32, patch []byte) {
		data := alignedBytes(len(img))
		copy(data, img)
		patchImage(data, id, entry, at, patch)
		openPatched(t, data, o, a)
	})
}

// openPatched opens a patched image and materializes every component; each
// must be an error or a value, never a panic or a nil without an error.
func openPatched(t *testing.T, data []byte, o *ontology.Ontology, a *corpus.Analyzer) {
	m, err := openBytes(data, false, o)
	if err != nil {
		return
	}
	cs, err := m.ContextSet()
	if err == nil && cs == nil {
		t.Fatal("ContextSet returned neither a set nor an error")
	}
	if err == nil {
		for p := range a.Corpus().Len() {
			cs.ContextsOf(corpus.PaperID(p))
		}
	}
	var ix *index.Index
	if p, err := m.IndexParts(); err == nil {
		ix, err = index.FromParts(a, p)
		if err == nil && ix == nil {
			t.Fatal("FromParts returned neither an index nor an error")
		}
		if err == nil {
			q := vector.New()
			for _, term := range p.Terms {
				q[term] = 1
			}
			ix.SearchVector(q, index.Options{})
		}
	}
	if df, err := m.DF(); err == nil && df == nil {
		t.Fatal("DF returned neither a table nor an error")
	}
	for _, name := range m.matNames {
		mat, err := m.Matrix(name)
		if err == nil && mat == nil {
			t.Fatalf("Matrix(%q) returned neither a matrix nor an error", name)
		}
		if err == nil && ix != nil {
			var names []string
			for _, ctx := range mat.Contexts() {
				names = append(names, o.Term(ctx).Name)
			}
			search.NewEngine(ix, mat, search.DefaultWeights()).Search(strings.Join(names, " "), search.Options{MaxContexts: len(names), MinContextMatch: 1e-9})
		}
	}
}
