package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/prestige"
	"ctxsearch/internal/vector"
)

// noMmapEnv force-disables the mmap path (CI runs the suite with it set so
// the byte-copy fallback decoder stays green).
const noMmapEnv = "CTXSEARCH_NO_MMAP"

// section is one parsed section-table entry. verified flips after the
// first CRC check — each section's checksum is verified lazily, the first
// time its data is materialized into a component, so an open never faults
// in payload pages it doesn't need.
type section struct {
	id, kind    uint32
	off, length uint64
	crc         uint32
	verified    bool
}

// Mapped is an open state file. The components hand out slices aliasing
// the underlying mapping (or the heap buffer on the byte-copy path),
// materialized lazily and cached.
//
// Lifecycle: Open returns the Mapped holding one owner reference. Close
// drops it; the mapping is unmapped when the owner reference and every
// Retain have been released, so a server can swap in a new state and
// Close the old one while requests still read it (open-new, swap,
// close-old). Close is idempotent.
type Mapped struct {
	onto   *ontology.Ontology
	data   []byte
	mapped bool
	secs   map[uint32]*section
	fp     [32]byte

	refs   atomic.Int64
	closed atomic.Bool

	mu       sync.Mutex
	termDict []ontology.TermID
	cs       *contextset.ContextSet
	parts    *index.Parts
	df       *vector.DF
	matDir   map[string]uint32
	matNames []string
	mats     map[string]*prestige.Matrix
}

// legacyGobMagic is the string every gob state file (v1–v3) carried in its
// first message; Open looks for it only to name the fix.
const legacyGobMagic = "ctxsearch-state"

// Open opens a state file for serving. The file is memory-mapped
// (syscall.Mmap on unix; a byte-copy read everywhere else or under
// CTXSEARCH_NO_MMAP=1) and its sections are reinterpreted zero-copy on
// demand. The ontology must be the one the state was built from.
func Open(path string, onto *ontology.Ontology) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := int(fi.Size())
	head := make([]byte, 256) // a gob state's magic sits in its first ~60 bytes
	n, _ := io.ReadFull(f, head)
	head = head[:n]
	if !bytes.HasPrefix(head, []byte(magic)) {
		if bytes.Contains(head, []byte(legacyGobMagic)) {
			return nil, fmt.Errorf("store: opening %s: gob state files (v1–v3) are no longer supported — rebuild with `ctxsearch build -state …`", path)
		}
		return nil, fmt.Errorf("store: opening %s: not a ctxsearch state file (%d bytes)", path, size)
	}
	var data []byte
	mapped := false
	if os.Getenv(noMmapEnv) == "" {
		if d, ok, merr := mmapFile(f, size); merr == nil && ok {
			data, mapped = d, true
		}
	}
	if data == nil {
		// Fallback: byte-copy the file into an 8-aligned heap buffer;
		// the section parsing and reinterpretation below are identical.
		data = alignedBytes(size)
		if _, err := io.ReadFull(io.NewSectionReader(f, 0, int64(size)), data); err != nil {
			return nil, fmt.Errorf("store: reading %s: %w", path, err)
		}
	}
	m, err := openBytes(data, mapped, onto)
	if err != nil {
		if mapped {
			_ = munmap(data)
		}
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	return m, nil
}

// openBytes parses a state image over data (mapped or heap). Only the
// header, section table, and matrix directory are touched; everything
// else waits for its first consumer.
func openBytes(data []byte, mapped bool, onto *ontology.Ontology) (*Mapped, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("truncated header (%d bytes)", len(data))
	}
	if string(data[:8]) != magic {
		return nil, fmt.Errorf("bad magic %q", data[:8])
	}
	ver := int(binary.LittleEndian.Uint32(data[8:]))
	if ver > version {
		return nil, tooNewError(ver)
	}
	if ver < version {
		return nil, tooOldError(ver)
	}
	count := binary.LittleEndian.Uint32(data[12:])
	if count > maxSections {
		return nil, fmt.Errorf("section count %d exceeds the format limit %d (corrupt header?)", count, maxSections)
	}
	tend := headerSize + int(count)*secHdrSize
	if tend > len(data) {
		return nil, fmt.Errorf("truncated section table: %d sections need %d bytes, file has %d", count, tend, len(data))
	}
	table := data[headerSize:tend]
	if got, want := crc32.Checksum(table, castagnoli), binary.LittleEndian.Uint32(data[16:]); got != want {
		return nil, fmt.Errorf("section table CRC mismatch (corrupt state file)")
	}
	m := &Mapped{
		onto:   onto,
		data:   data,
		mapped: mapped,
		secs:   make(map[uint32]*section, count),
		mats:   make(map[string]*prestige.Matrix),
	}
	m.refs.Store(1)
	copy(m.fp[:], data[24:headerSize])
	for i := 0; i < int(count); i++ {
		e := table[i*secHdrSize:]
		s := &section{
			id:     binary.LittleEndian.Uint32(e[0:]),
			kind:   binary.LittleEndian.Uint32(e[4:]),
			off:    binary.LittleEndian.Uint64(e[8:]),
			length: binary.LittleEndian.Uint64(e[16:]),
			crc:    binary.LittleEndian.Uint32(e[24:]),
		}
		if s.kind >= uint32(len(kindNames)) || kindNames[s.kind] == "" {
			return nil, fmt.Errorf("section %d has unknown element kind %d", s.id, s.kind)
		}
		es := uint64(elemSize(s.kind))
		if s.off%es != 0 {
			return nil, fmt.Errorf("section %d is unaligned: offset %d is not a multiple of its %d-byte elements", s.id, s.off, es)
		}
		if s.length%es != 0 {
			return nil, fmt.Errorf("section %d length %d is not a multiple of its %d-byte elements", s.id, s.length, es)
		}
		// Compared as a remainder, not as off+length, which can wrap uint64.
		if s.off > uint64(len(data)) || s.length > uint64(len(data))-s.off {
			return nil, fmt.Errorf("section %d spans [%d, %d) beyond the %d-byte file (truncated?)", s.id, s.off, s.off+s.length, len(data))
		}
		if m.secs[s.id] != nil {
			return nil, fmt.Errorf("duplicate section %d", s.id)
		}
		m.secs[s.id] = s
	}
	if err := m.parseMatrixDir(); err != nil {
		return nil, err
	}
	return m, nil
}

// Fingerprint returns the fingerprint the writer stored in the header: the
// digest of the ontology and corpus the state was built from (see the
// package-level Fingerprint).
func (m *Mapped) Fingerprint() [32]byte { return m.fp }

// tooNewError names the file's version and points at the fix, so serve
// startup prints something actionable instead of a bare decode error.
func tooNewError(ver int) error {
	return fmt.Errorf("store: state file version %d is newer than this binary supports (%d) — the file was built by a newer ctxsearch; upgrade this binary, or rebuild the state with this one", ver, version)
}

// tooOldError is tooNewError's counterpart for a version this binary no
// longer reads.
func tooOldError(ver int) error {
	return fmt.Errorf("store: state file version %d is older than this binary reads (%d) — the file was built by an older ctxsearch; rebuild the state with `ctxsearch build -state …`", ver, version)
}

// needLocked returns a section's data, verifying its CRC on first touch.
// Every section the reader asks for is required, and must hold the element
// kind the caller reinterprets its bytes as: a missing section or another
// kind is an error. Caller holds m.mu (or is single-threaded during open).
func (m *Mapped) needLocked(id, kind uint32) ([]byte, error) {
	s := m.secs[id]
	if s == nil {
		return nil, fmt.Errorf("store: state file is missing required section %d — rebuild it with `ctxsearch build -state …`", id)
	}
	if s.kind != kind {
		return nil, fmt.Errorf("store: section %d holds %s elements, this binary reads %s — the file was written by another ctxsearch version; rebuild it with `ctxsearch build -state …`", id, kindNames[s.kind], kindNames[kind])
	}
	b := m.data[s.off : s.off+s.length]
	if !s.verified {
		if got := crc32.Checksum(b, castagnoli); got != s.crc {
			return nil, fmt.Errorf("store: section %d CRC mismatch (want %08x, data hashes to %08x): corrupt state file", id, s.crc, got)
		}
		s.verified = true
	}
	return b, nil
}

// termDictLocked decodes (once) the shared term-ID dictionary. Strings
// alias the file buffer — no copies.
func (m *Mapped) termDictLocked() ([]ontology.TermID, error) {
	if m.termDict != nil {
		return m.termDict, nil
	}
	b, err := m.needLocked(secTermDict, kindBytes)
	if err != nil {
		return nil, err
	}
	c := &cursor{b: b}
	n := int(c.u32())
	if n < 0 || n > len(b) {
		return nil, fmt.Errorf("store: term dictionary declares %d entries in a %d-byte section", n, len(b))
	}
	out := make([]ontology.TermID, n)
	for i := range out {
		out[i] = ontology.TermID(c.str())
	}
	if err := c.done(); err != nil {
		return nil, fmt.Errorf("store: term dictionary: %w", err)
	}
	m.termDict = out
	return out, nil
}

// dictRef resolves a term-dictionary reference with bounds checking.
func dictRef(dict []ontology.TermID, r uint32) (ontology.TermID, error) {
	if int(r) >= len(dict) {
		return "", fmt.Errorf("store: term reference %d outside the %d-entry dictionary", r, len(dict))
	}
	return dict[r], nil
}

// parseMatrixDir reads the score-function directory (eager: it is tiny,
// and Matrix must name what the file has without faulting payloads in).
func (m *Mapped) parseMatrixDir() error {
	b, err := m.needLocked(secMatrixDir, kindBytes)
	if err != nil {
		return err
	}
	c := &cursor{b: b}
	n := int(c.u32())
	if n < 0 || n > len(b) {
		return fmt.Errorf("store: matrix directory declares %d entries in a %d-byte section", n, len(b))
	}
	m.matDir = make(map[string]uint32, n)
	m.matNames = make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := c.str()
		base := c.u32()
		m.matDir[name] = base
		m.matNames = append(m.matNames, name)
	}
	if err := c.done(); err != nil {
		return fmt.Errorf("store: matrix directory: %w", err)
	}
	sort.Strings(m.matNames)
	return nil
}

// ContextSet materializes (once) the context paper set over the mapped
// member arrays. Its members must be below the index's document count (the
// number of norms in section 12): they index per-paper scratch.
func (m *Mapped) ContextSet() (*contextset.ContextSet, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.contextSetLocked()
}

// contextSetLocked is ContextSet with m.mu held: the one set every matrix of
// the file binds to.
func (m *Mapped) contextSetLocked() (*contextset.ContextSet, error) {
	if m.cs != nil {
		return m.cs, nil
	}
	dict, err := m.termDictLocked()
	if err != nil {
		return nil, err
	}
	meta, err := m.needLocked(secCSMeta, kindBytes)
	if err != nil {
		return nil, err
	}
	c := &cursor{b: meta}
	// count reads an entry count and refuses one the bytes left in the
	// section cannot hold at size bytes an entry: every count below sizes
	// an allocation, and a CRC only proves the file is the one written.
	count := func(what string, size int) (int, error) {
		u := c.u32()
		n := int(u) // negative on a 32-bit host when u > MaxInt32
		if n < 0 || n > (len(meta)-c.off)/size {
			return 0, fmt.Errorf("store: context meta declares %d %s in a %d-byte section", u, what, len(meta))
		}
		return n, nil
	}
	kind := contextset.Kind(c.u32())
	nc, err := count("contexts", 4)
	if err != nil {
		return nil, err
	}
	ctxs := make([]ontology.TermID, nc)
	for i := range ctxs {
		if ctxs[i], err = dictRef(dict, c.u32()); err != nil {
			return nil, err
		}
	}
	nd, err := count("decay entries", 12)
	if err != nil {
		return nil, err
	}
	decay := make(map[ontology.TermID]float64, nd)
	for i := 0; i < nd && !c.fail; i++ {
		t, err := dictRef(dict, c.u32())
		if err != nil {
			return nil, err
		}
		decay[t] = c.f64()
	}
	ni, err := count("inherited entries", 8)
	if err != nil {
		return nil, err
	}
	inherited := make(map[ontology.TermID]ontology.TermID, ni)
	for i := 0; i < ni && !c.fail; i++ {
		t, err := dictRef(dict, c.u32())
		if err != nil {
			return nil, err
		}
		if inherited[t], err = dictRef(dict, c.u32()); err != nil {
			return nil, err
		}
	}
	if err := c.done(); err != nil {
		return nil, fmt.Errorf("store: context meta: %w", err)
	}
	offs, err := m.needLocked(secCSOffsets, kindI32)
	if err != nil {
		return nil, err
	}
	docs, err := m.needLocked(secCSDocs, kindI32)
	if err != nil {
		return nil, err
	}
	norms, err := m.needLocked(secIdxNorms, kindF64)
	if err != nil {
		return nil, err
	}
	cs, err := contextset.FromFrozen(m.onto, &contextset.Frozen{
		Kind:          kind,
		Ctxs:          ctxs,
		Offsets:       as32s[int32](offs),
		Docs:          as32s[corpus.PaperID](docs),
		Papers:        len(norms) / 8,
		Decay:         decay,
		InheritedFrom: inherited,
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	m.cs = cs
	return cs, nil
}

// IndexParts materializes (once) the persisted text-index arrays.
func (m *Mapped) IndexParts() (*index.Parts, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.parts != nil {
		return m.parts, nil
	}
	var b [5][]byte // first segments, segment starts, TFs, docs, norms
	for i, sec := range [5][2]uint32{{secIdxFirst, kindI32}, {secIdxStart, kindI32}, {secIdxTF, kindU16}, {secIdxDocs, kindI32}, {secIdxNorms, kindF64}} {
		var err error
		if b[i], err = m.needLocked(sec[0], sec[1]); err != nil {
			return nil, err
		}
	}
	m.parts = &index.Parts{
		First: as32s[int32](b[0]),
		Start: as32s[int32](b[1]),
		TF:    asU16s(b[2]),
		Docs:  as32s[corpus.PaperID](b[3]),
		Norms: asF64s(b[4]),
	}
	return m.parts, nil
}

// DF materializes (once) the persisted document-frequency table.
func (m *Mapped) DF() (*vector.DF, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.df != nil {
		return m.df, nil
	}
	b, err := m.needLocked(secDF, kindBytes)
	if err != nil {
		return nil, err
	}
	c := &cursor{b: b}
	docs := int(int64(c.u64()))
	n := int(c.u32())
	if n < 0 || n > len(b) {
		return nil, fmt.Errorf("store: DF table declares %d entries in a %d-byte section", n, len(b))
	}
	terms := make([]string, 0, n)
	counts := make([]int32, 0, n)
	for i := 0; i < n && !c.fail; i++ {
		terms = append(terms, c.str())
		counts = append(counts, int32(c.u32()))
	}
	if err := c.done(); err != nil {
		return nil, fmt.Errorf("store: DF table: %w", err)
	}
	if m.df, err = vector.NewDF(docs, terms, counts); err != nil {
		return nil, fmt.Errorf("store: DF table: %w", err)
	}
	return m.df, nil
}

// Matrix materializes (once) one score function's prestige matrix: its
// mapped score column, bound to the file's own ContextSet. Only the
// requested function's sections are touched — a file carrying three score
// functions faults in one.
func (m *Mapped) Matrix(name string) (*prestige.Matrix, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mat := m.mats[name]; mat != nil {
		return mat, nil
	}
	base, ok := m.matDir[name]
	if !ok {
		return nil, fmt.Errorf("store: state has no %q score matrix (have %v)", name, m.matNames)
	}
	cs, err := m.contextSetLocked()
	if err != nil {
		return nil, err
	}
	dict, err := m.termDictLocked()
	if err != nil {
		return nil, err
	}
	refsB, err := m.needLocked(base+matCtxs, kindU32)
	if err != nil {
		return nil, err
	}
	vals, err := m.needLocked(base+matVals, kindF64)
	if err != nil {
		return nil, err
	}
	refs := as32s[uint32](refsB)
	ctxs := make([]ontology.TermID, len(refs))
	for i, r := range refs {
		if ctxs[i], err = dictRef(dict, r); err != nil {
			return nil, err
		}
	}
	mat, err := prestige.FromColumn(cs, ctxs, asF64s(vals))
	if err != nil {
		return nil, fmt.Errorf("store: matrix %q: %w", name, err)
	}
	m.mats[name] = mat
	return mat, nil
}

// ZeroCopy reports whether the components alias a memory mapping (false
// on the byte-copy path).
func (m *Mapped) ZeroCopy() bool { return m.mapped }

// Retain takes a reference for the duration of a request, guaranteeing
// the mapping stays valid until the matching Release. It fails once Close
// has dropped the owner reference and all other retains drained.
func (m *Mapped) Retain() bool {
	for {
		n := m.refs.Load()
		if n <= 0 {
			return false
		}
		if m.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Release returns a Retain reference; the last release after Close
// unmaps.
func (m *Mapped) Release() {
	if m.refs.Add(-1) == 0 {
		m.unmap()
	}
}

// Close drops the owner reference. Idempotent and safe while requests
// still hold retains: the mapping is unmapped only when the last
// reference goes.
func (m *Mapped) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	m.Release()
	return nil
}

func (m *Mapped) unmap() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.mapped && m.data != nil {
		_ = munmap(m.data)
	}
	m.data = nil
}
