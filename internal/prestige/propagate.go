package prestige

import (
	"sort"

	"ctxsearch/internal/ontology"
)

// PropagateMax applies the hierarchy rule of §3: a paper residing in
// context ci and in descendants ck…cn of ci takes score max(si, sk, …, sn)
// in ci — a high score in a more specific descendant means high relevance
// to the ancestor. It returns a new matrix over m's contexts and runs; m is
// never written, so it may alias read-only memory.
//
// Terms are processed deepest-first, so scores flow transitively through
// intermediate contexts that contain the paper. A descendant's score only
// reaches an ancestor for papers the ancestor actually contains.
func PropagateMax(onto *ontology.Ontology, m *Matrix) *Matrix {
	out := &Matrix{
		ctxs:    m.ctxs,
		ord:     m.ord,
		offsets: m.offsets,
		docs:    m.docs,
		vals:    append([]float64(nil), m.vals...),
	}
	rows := make([]int32, len(m.ctxs))
	for i := range rows {
		rows[i] = int32(i)
	}
	sort.Slice(rows, func(i, j int) bool {
		ti, tj := m.ctxs[rows[i]], m.ctxs[rows[j]]
		li, lj := onto.Level(ti), onto.Level(tj)
		if li != lj {
			return li > lj // deepest first
		}
		return ti < tj
	})
	run := func(i int32) ([]int32, []float64) {
		lo, hi := out.offsets[i], out.offsets[i+1]
		return out.docs[lo:hi], out.vals[lo:hi]
	}
	for _, r := range rows {
		childDocs, childVals := run(r)
		// Walk all proper ancestors; scored ancestors containing the paper
		// take the max. (Direct parents would miss scored grandparents when
		// the parent itself is unscored, e.g. excluded as too small.)
		for _, anc := range onto.Ancestors(m.ctxs[r]) {
			a, ok := out.ord[anc]
			if !ok {
				continue
			}
			// Both runs ascend by paper ID: one merge walk finds the
			// papers they share.
			ancDocs, ancVals := run(a)
			j := 0
			for c, d := range childDocs {
				for j < len(ancDocs) && ancDocs[j] < d {
					j++
				}
				if j == len(ancDocs) {
					break
				}
				if ancDocs[j] == d && childVals[c] > ancVals[j] {
					ancVals[j] = childVals[c]
				}
			}
		}
	}
	out.rowMax = rowMaxima(out.offsets, out.vals)
	return out
}
