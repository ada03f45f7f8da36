package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
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
// checked-in seeds hold a term dictionary whose count overflows its
// section, three hostile member runs (section 4: a negative member, a run
// out of order, a member at the paper count) and the hostile posting
// segments TestHostileSegmentSeeds lists. The seeds added below patch a
// posting doc, relabel the posting docs' section with another 4-byte
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
			for _, term := range a.DF().Terms() {
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

// TestHostileSegmentSeeds: each checked-in FuzzOpenBytes seed that breaks
// the posting segments — a first segment past the segment count or out of
// order (section 22), a segment start past the doc column or out of order
// (23), a TF of 0, an odd-length, relabelled or short TF column (24), a
// section laid over the header — fails at open or at bind with an error
// naming the section, without a panic.
func TestHostileSegmentSeeds(t *testing.T) {
	o, _, a, st := fixtureWithIndex(t)
	img := v5Bytes(t, st)
	for name, want := range map[string]string{
		"seed-decreasing-offsets":        "first segments decrease at 1",
		"seed-first-segment-past-count":  "first segments span",
		"seed-section-overlaps-header":   "section 22 CRC mismatch",
		"seed-last-offset-past-docs":     "segment starts span",
		"seed-segment-start-past-docs":   "segment starts decrease at 1",
		"seed-segment-starts-decreasing": "segment starts decrease at 1",
		"seed-tf-zero":                   "segment 0 has term frequency 0",
		"seed-tf-odd-length":             "section 24 length",
		"seed-tf-as-uint32":              "section 24 holds uint32 elements",
		"seed-tf-shorter-than-docs":      "first segments span",
	} {
		id, entry, at, patch := readSeed(t, name)
		data := alignedBytes(len(img))
		copy(data, img)
		patchImage(data, id, entry, at, patch)
		m, err := openBytes(data, false, o)
		if err == nil {
			var p *index.Parts
			if p, err = m.IndexParts(); err == nil {
				_, err = index.FromParts(a, p)
			}
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want an error naming %q", name, err, want)
		}
	}
}

// readSeed parses a checked-in FuzzOpenBytes seed: the section ID, the
// entry flag, the position and the patch.
func readSeed(t *testing.T, name string) (id uint32, entry bool, at int32, patch []byte) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzOpenBytes", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 5 {
		t.Fatalf("%s: %d lines", name, len(lines))
	}
	if _, err := fmt.Sscanf(strings.Join(lines[1:4], " "), "uint32(%d) bool(%t) int32(%d)", &id, &entry, &at); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	q, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[4], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return id, entry, at, []byte(q)
}
