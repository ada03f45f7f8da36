package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"
)

// The state format is a sectioned binary file built for memory-mapped,
// zero-copy opens. The magic marks the container; the version field inside
// the header counts revisions: Save stamps 8 and Open reads exactly that —
// a file of any other version is refused as a whole, naming the rebuild.
// Save writes every section ID listed further down, and a reader requires
// each one it materializes; a section whose ID it never asks for is
// ignored:
//
//	header (56 bytes):
//	  [8]byte  magic "CTXSRCH4"
//	  uint32   version (8)
//	  uint32   section count
//	  uint32   CRC32-C of the section table bytes
//	  uint32   reserved (0)
//	  [32]byte fingerprint: SHA-256 of the ontology and corpus the state
//	           was built from (see Fingerprint)
//	section table (count × 32 bytes, immediately after the header):
//	  uint32   section id
//	  uint32   element kind (bytes / int32 / float64 / uint32 / uint16)
//	  uint64   data offset from file start
//	  uint64   data length in bytes
//	  uint32   CRC32-C of the data
//	  uint32   reserved (0)
//	data sections, each aligned to 64 bytes (zero padding between)
//
// The fingerprint sits in the header rather than in a section: it is read
// at every open, and a fixed field needs no section lookup or length check.
//
// All integers and floats are little-endian, fixed width. Numeric sections
// are reinterpreted in place via unsafe.Slice — no per-element decode —
// which is valid because (a) the section offset is a multiple of the
// element size (64-byte alignment implies every element alignment), (b)
// the slices are only ever read (every construct-from-borrowed-slices
// consumer documents the no-mutate contract), and (c) the host is
// little-endian (checked at open; big-endian hosts take a per-element
// decode fallback). Section CRCs are verified lazily: the first time a
// section's data is materialized into a component, not at open — an open
// therefore touches only the header, the table, and the small dictionary
// sections, never faulting in the CSR payload pages.
const (
	magic = "CTXSRCH4"
	// Version is the one format this binary writes and reads; a file of
	// any other is refused as a whole.
	Version     = 8
	headerSize  = 56
	secHdrSize  = 32
	secAlign    = 64
	maxSections = 1 << 16
)

// Section element kinds. The kind fixes the element size, and with it the
// alignment the section offset must satisfy; a reader also refuses a
// section whose kind is not the one it reinterprets the bytes as. Kinds 2
// (int64) and 4 (uint64) are retired and stay gaps, so that no other kind's
// value moves. The one uint16 section is the posting segments' term
// frequencies (24).
const (
	kindBytes = uint32(0)
	kindI32   = uint32(1)
	kindF64   = uint32(3)
	kindU32   = uint32(5)
	kindU16   = uint32(6)
)

// kindNames spells each element kind in errors; a retired kind has none.
var kindNames = [...]string{kindBytes: "bytes", kindI32: "int32", kindF64: "float64", kindU32: "uint32", kindU16: "uint16"}

// elemSize returns the element width of a section kind (1 for raw bytes).
func elemSize(kind uint32) int {
	switch kind {
	case kindU16:
		return 2
	case kindI32, kindU32:
		return 4
	case kindF64:
		return 8
	default:
		return 1
	}
}

// Section IDs. The context-set and index sections have fixed IDs; each
// prestige matrix gets a block of IDs starting at a base recorded in the
// matrix directory. IDs that earlier versions wrote are never reused: 5–11,
// 13, 14, 17–21, and a matrix's base+1, base+2 and base+4.
const (
	secCSMeta       = uint32(1)  // bytes: kind, member ctx refs, decay, inheritedFrom
	secTermDict     = uint32(2)  // bytes: shared term-ID string table
	secCSOffsets    = uint32(3)  // int32: member run offsets
	secCSDocs       = uint32(4)  // int32: member paper IDs
	secIdxNorms     = uint32(12) // float64: per-document vector norms
	secDF           = uint32(15) // bytes: document-frequency table
	secMatrixDir    = uint32(16) // bytes: score-function name → section base
	secIdxFirst     = uint32(22) // int32: each term's first posting segment
	secIdxStart     = uint32(23) // int32: each segment's start in section 25
	secIdxTF        = uint32(24) // uint16: each segment's term frequency
	secIdxDocs      = uint32(25) // int32: posting doc IDs, segment after segment
	secMatrixBase   = uint32(100)
	secMatrixStride = uint32(16)
)

// Per-matrix section offsets from its base: a matrix is a score column over
// the context set's members (sections 3 and 4).
const (
	matCtxs = uint32(0) // uint32: refs into the shared term dictionary
	matVals = uint32(3) // float64: one score per context-set member
)

// castagnoli is the CRC32-C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether the host stores integers little-endian;
// the zero-copy reinterpretation is only valid when it does.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// alignedBytes returns an n-byte slice whose base address is 8-aligned
// (backed by a []uint64), so the byte-copy fallback path can reinterpret
// numeric sections exactly like the mmap path.
func alignedBytes(n int) []byte {
	if n <= 0 {
		return nil
	}
	w := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), n)
}

// --- zero-copy reinterpretation (little-endian hosts) with per-element
// --- decode fallbacks (big-endian hosts). Lengths must be validated by
// --- the caller (section parsing checks length % elemSize == 0).

// as32s reinterprets a section of 4-byte integers: int32 offsets, uint32
// dictionary references, or paper IDs (corpus.PaperID is an int32).
func as32s[T ~int32 | ~uint32](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]T, len(b)/4)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// asU16s reinterprets a section of 2-byte unsigned integers: the posting
// segments' term frequencies.
func asU16s(b []byte) []uint16 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*uint16)(unsafe.Pointer(&b[0])), len(b)/2)
	}
	out := make([]uint16, len(b)/2)
	for i := range out {
		out[i] = binary.LittleEndian.Uint16(b[2*i:])
	}
	return out
}

func asF64s(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// asString reinterprets a byte run as a string without copying. The bytes
// alias the mapped (or heap) file buffer, which outlives every component
// handed out by the Mapped — the same lifetime argument as the numeric
// slices.
func asString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// --- little-endian encoders for the writer (portable, per-element; the
// --- write path is offline and never hot).

func encode32s[T ~int32 | ~uint32](v []T) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
	return b
}

func encodeU16s(v []uint16) []byte {
	b := make([]byte, 2*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint16(b[2*i:], x)
	}
	return b
}

func encodeF64s(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// cursor is a little-endian byte-stream reader for the small metadata
// sections (dictionaries, directory, context-set meta). Errors latch: once
// a read overruns, every subsequent read returns zero values and err()
// reports the overrun.
type cursor struct {
	b    []byte
	off  int
	fail bool
}

func (c *cursor) take(n int) []byte {
	if c.fail || n < 0 || c.off+n > len(c.b) {
		c.fail = true
		return nil
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out
}

func (c *cursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *cursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

// str reads a u32-length-prefixed string, aliasing the underlying buffer
// (no copy).
func (c *cursor) str() string { return asString(c.take(int(c.u32()))) }

// done reports a clean, fully-consumed parse.
func (c *cursor) done() error {
	if c.fail {
		return fmt.Errorf("truncated metadata section")
	}
	if c.off != len(c.b) {
		return fmt.Errorf("metadata section has %d trailing bytes", len(c.b)-c.off)
	}
	return nil
}

// builder accumulates a metadata section.
type builder struct{ b []byte }

func (w *builder) u32(x uint32) {
	var t [4]byte
	binary.LittleEndian.PutUint32(t[:], x)
	w.b = append(w.b, t[:]...)
}

func (w *builder) u64(x uint64) {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], x)
	w.b = append(w.b, t[:]...)
}

func (w *builder) f64(x float64) { w.u64(math.Float64bits(x)) }

func (w *builder) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}
