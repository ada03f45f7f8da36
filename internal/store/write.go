package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/vector"
)

// sectionData is one section queued for writing.
type sectionData struct {
	id   uint32
	kind uint32
	data []byte
}

// Save writes the state to w in the flat format (see format.go for the
// layout). The context set is flattened to its frozen CSR arrays, each
// prestige matrix's score column over those arrays is written verbatim
// (every matrix must score st.ContextSet), and the text index's postings
// and the DF table go along, so an open skips corpus re-analysis entirely
// and binds the postings zero-copy. The header carries st.Fingerprint.
// The layout is deterministic: sections in fixed ID order, dictionaries and
// directories sorted.
func Save(w io.Writer, st *State) error {
	if st == nil || st.ContextSet == nil {
		return fmt.Errorf("store: nil state or context set")
	}
	if st.Index == nil || st.DF == nil {
		return fmt.Errorf("store: a state needs its text index and DF table to be saved")
	}
	if err := checkPostings(st.Index, st.DF); err != nil {
		return err
	}
	f := st.ContextSet.Freeze()
	mats := st.Matrices
	names := make([]string, 0, len(mats))
	for name, mat := range mats {
		if mat.ContextSet() != st.ContextSet {
			return fmt.Errorf("store: matrix %q was scored over another context set than the state's", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)

	// Shared term dictionary: every ontology term referenced anywhere in
	// the state, sorted, referenced by index everywhere else.
	termSet := make(map[ontology.TermID]struct{})
	for _, t := range f.Ctxs {
		termSet[t] = struct{}{}
	}
	for t := range f.Decay {
		termSet[t] = struct{}{}
	}
	for t, a := range f.InheritedFrom {
		termSet[t] = struct{}{}
		termSet[a] = struct{}{}
	}
	for _, name := range names {
		ctxs, _ := mats[name].Column()
		for _, t := range ctxs {
			termSet[t] = struct{}{}
		}
	}
	terms := make([]ontology.TermID, 0, len(termSet))
	for t := range termSet {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i] < terms[j] })
	ref := make(map[ontology.TermID]uint32, len(terms))
	for i, t := range terms {
		ref[t] = uint32(i)
	}

	var secs []sectionData
	add := func(id, kind uint32, data []byte) {
		secs = append(secs, sectionData{id: id, kind: kind, data: data})
	}

	var td builder
	td.u32(uint32(len(terms)))
	for _, t := range terms {
		td.str(string(t))
	}
	add(secTermDict, kindBytes, td.b)

	var mb builder
	mb.u32(uint32(f.Kind))
	mb.u32(uint32(len(f.Ctxs)))
	for _, t := range f.Ctxs {
		mb.u32(ref[t])
	}
	// Decay, inheritedFrom: sorted by term for determinism.
	mb.u32(uint32(len(f.Decay)))
	for _, t := range sortedTermKeys(len(f.Decay), func(yield func(ontology.TermID)) {
		for k := range f.Decay {
			yield(k)
		}
	}) {
		mb.u32(ref[t])
		mb.f64(f.Decay[t])
	}
	mb.u32(uint32(len(f.InheritedFrom)))
	for _, t := range sortedTermKeys(len(f.InheritedFrom), func(yield func(ontology.TermID)) {
		for k := range f.InheritedFrom {
			yield(k)
		}
	}) {
		mb.u32(ref[t])
		mb.u32(ref[f.InheritedFrom[t]])
	}
	add(secCSMeta, kindBytes, mb.b)

	add(secCSOffsets, kindI32, encode32s(f.Offsets))
	add(secCSDocs, kindI32, encode32s(f.Docs))

	// Matrix directory and per-matrix sections.
	var dir builder
	dir.u32(uint32(len(names)))
	for i, name := range names {
		base := secMatrixBase + secMatrixStride*uint32(i)
		dir.str(name)
		dir.u32(base)
		ctxs, vals := mats[name].Column()
		refs := make([]uint32, len(ctxs))
		for k, t := range ctxs {
			refs[k] = ref[t]
		}
		add(base+matCtxs, kindU32, encode32s(refs))
		add(base+matVals, kindF64, encodeF64s(vals))
	}
	add(secMatrixDir, kindBytes, dir.b)

	// Text index + DF table.
	p := st.Index
	add(secIdxFirst, kindI32, encode32s(p.First))
	add(secIdxStart, kindI32, encode32s(p.Start))
	add(secIdxTF, kindU16, encodeU16s(p.TF))
	add(secIdxDocs, kindI32, encode32s(p.Docs))
	add(secIdxNorms, kindF64, encodeF64s(p.Norms))

	docs, counts := st.DF.Counts()
	var db builder
	db.u64(uint64(docs))
	db.u32(uint32(len(counts)))
	for id, t := range st.DF.Terms() {
		db.str(t)
		db.u32(uint32(counts[id]))
	}
	add(secDF, kindBytes, db.b)

	return writeSections(w, st.Fingerprint, secs)
}

// checkPostings refuses index parts the DF table cannot weight: a reader
// derives every posting's weight (1 + ln tf)·idf from its segment's TF and
// the IDF of its term, and numbers the terms by the table, so the table
// must count the parts' documents and hold their terms, one fewer than
// First's entries. Each refusal names what differs.
func checkPostings(p *index.Parts, df *vector.DF) error {
	docs, _ := df.Counts()
	if docs != len(p.Norms) {
		return fmt.Errorf("store: the DF table counts %d documents, the index %d", docs, len(p.Norms))
	}
	if terms := len(df.Terms()); len(p.First) != terms+1 {
		return fmt.Errorf("store: the DF table holds %d terms, the index %d", terms, len(p.First)-1)
	}
	return nil
}

// sortedTermKeys collects term IDs from an iterator and returns them
// sorted — the deterministic map-walk order of the metadata encoders.
func sortedTermKeys(n int, iter func(yield func(ontology.TermID))) []ontology.TermID {
	out := make([]ontology.TermID, 0, n)
	iter(func(t ontology.TermID) { out = append(out, t) })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// alignUp rounds n up to the next multiple of align (a power of two).
func alignUp(n, align uint64) uint64 { return (n + align - 1) &^ (align - 1) }

// writeSections lays out the header, with the fingerprint fp, the section
// table, and aligned data and streams them to w.
func writeSections(w io.Writer, fp [32]byte, secs []sectionData) error {
	if len(secs) > maxSections {
		return fmt.Errorf("store: %d sections exceeds the format limit %d", len(secs), maxSections)
	}
	table := make([]byte, len(secs)*secHdrSize)
	off := alignUp(uint64(headerSize+len(table)), secAlign)
	for i := range secs {
		s := &secs[i]
		e := table[i*secHdrSize:]
		binary.LittleEndian.PutUint32(e[0:], s.id)
		binary.LittleEndian.PutUint32(e[4:], s.kind)
		binary.LittleEndian.PutUint64(e[8:], off)
		binary.LittleEndian.PutUint64(e[16:], uint64(len(s.data)))
		binary.LittleEndian.PutUint32(e[24:], crc32.Checksum(s.data, castagnoli))
		binary.LittleEndian.PutUint32(e[28:], 0)
		off = alignUp(off+uint64(len(s.data)), secAlign)
	}

	var hdr [headerSize]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:], version)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(secs)))
	binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(table, castagnoli))
	binary.LittleEndian.PutUint32(hdr[20:], 0)
	copy(hdr[24:], fp[:])
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("store: writing header: %w", err)
	}
	if _, err := w.Write(table); err != nil {
		return fmt.Errorf("store: writing section table: %w", err)
	}
	pos := uint64(headerSize + len(table))
	var pad [secAlign]byte
	for i := range secs {
		s := &secs[i]
		if p := alignUp(pos, secAlign) - pos; p > 0 {
			if _, err := w.Write(pad[:p]); err != nil {
				return fmt.Errorf("store: writing padding: %w", err)
			}
			pos += p
		}
		if _, err := w.Write(s.data); err != nil {
			return fmt.Errorf("store: writing section %d: %w", s.id, err)
		}
		pos += uint64(len(s.data))
	}
	return nil
}
