// Package bitset implements a dense bitmap over small-integer IDs (paper
// IDs in this codebase). The query hot path sets the selected contexts'
// member runs in one and restricts its single index pass to it: a
// word-indexed bit probe replaces a map[PaperID]bool lookup.
package bitset

// Set is a bitmap over non-negative integers. The zero value is an empty
// set; Add grows it as needed. All read operations treat out-of-range IDs
// as absent.
type Set []uint64

// New returns a set pre-sized to hold IDs in [0, n).
func New(n int) Set {
	if n <= 0 {
		return nil
	}
	return make(Set, (n+63)/64)
}

// Add inserts id, growing the set if necessary. Negative IDs panic.
func (s *Set) Add(id int) {
	w := id >> 6
	if w >= len(*s) {
		grown := make(Set, w+1)
		copy(grown, *s)
		*s = grown
	}
	(*s)[w] |= 1 << (uint(id) & 63)
}

// Contains reports whether id is in the set; false for out-of-range IDs.
func (s Set) Contains(id int) bool {
	w := id >> 6
	return w >= 0 && w < len(s) && s[w]&(1<<(uint(id)&63)) != 0
}

// UnionWith ORs o into s in place, growing s if o is longer.
func (s *Set) UnionWith(o Set) {
	if len(o) > len(*s) {
		grown := make(Set, len(o))
		copy(grown, *s)
		*s = grown
	}
	for i, w := range o {
		(*s)[i] |= w
	}
}
