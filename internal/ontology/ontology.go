// Package ontology implements the context hierarchy substrate: a Gene
// Ontology–like directed acyclic graph of terms with is-a edges. It provides
// the structural queries the paper's scoring and evaluation machinery needs
// — term levels (root = level 1), descendant sets, information content
// I(C) = log(1/p(C)), and the RateOfDecay used when a descendant context
// inherits its ancestor's paper set — plus an OBO-flavoured flat-file
// parser/writer and a deterministic synthetic generator.
package ontology

import (
	"fmt"
	"math"
	"sort"
)

// TermID identifies an ontology term, e.g. "GO:0003700".
type TermID string

// Term is a single ontology term. Parents are is-a edges toward the root(s).
type Term struct {
	ID        TermID
	Name      string
	Namespace string
	Def       string
	Parents   []TermID
}

// Ontology is an immutable-after-Build term DAG. Construct with New, add
// terms with Add, then call Build once; the query methods are safe for
// concurrent use after Build.
type Ontology struct {
	terms    map[TermID]*Term
	order    []TermID // insertion order, for deterministic iteration
	children map[TermID][]TermID
	roots    []TermID
	built    bool

	levels    map[TermID]int
	descCount map[TermID]int
}

// New returns an empty ontology.
func New() *Ontology {
	return &Ontology{
		terms:    make(map[TermID]*Term),
		children: make(map[TermID][]TermID),
	}
}

// Add inserts a term. It returns an error on duplicate IDs or empty ID/name.
// Parents may reference terms added later; dangling parents are caught by
// Build.
func (o *Ontology) Add(t Term) error {
	if o.built {
		return fmt.Errorf("ontology: Add after Build")
	}
	if t.ID == "" || t.Name == "" {
		return fmt.Errorf("ontology: term must have ID and Name (got %q, %q)", t.ID, t.Name)
	}
	if _, dup := o.terms[t.ID]; dup {
		return fmt.Errorf("ontology: duplicate term %s", t.ID)
	}
	c := t
	c.Parents = append([]TermID(nil), t.Parents...)
	o.terms[t.ID] = &c
	o.order = append(o.order, t.ID)
	return nil
}

// Build finalises the DAG: resolves children lists, finds roots, verifies
// acyclicity and that every parent reference exists, and precomputes levels
// and descendant counts.
func (o *Ontology) Build() error {
	if o.built {
		return fmt.Errorf("ontology: Build called twice")
	}
	for _, id := range o.order {
		t := o.terms[id]
		for _, p := range t.Parents {
			if _, ok := o.terms[p]; !ok {
				return fmt.Errorf("ontology: term %s references unknown parent %s", id, p)
			}
			o.children[p] = append(o.children[p], id)
		}
		if len(t.Parents) == 0 {
			o.roots = append(o.roots, id)
		}
	}
	if len(o.roots) == 0 && len(o.order) > 0 {
		return fmt.Errorf("ontology: no root term (cycle through every term?)")
	}
	for _, kids := range o.children {
		sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
	}
	if err := o.checkAcyclic(); err != nil {
		return err
	}
	o.built = true
	o.computeLevels()
	o.computeDescendantCounts()
	return nil
}

func (o *Ontology) checkAcyclic() error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[TermID]int, len(o.terms))
	var visit func(id TermID) error
	visit = func(id TermID) error {
		switch color[id] {
		case grey:
			return fmt.Errorf("ontology: cycle through %s", id)
		case black:
			return nil
		}
		color[id] = grey
		for _, c := range o.children[id] {
			if err := visit(c); err != nil {
				return err
			}
		}
		color[id] = black
		return nil
	}
	for _, r := range o.roots {
		if err := visit(r); err != nil {
			return err
		}
	}
	for _, id := range o.order {
		if color[id] != black {
			return fmt.Errorf("ontology: term %s unreachable from any root (cycle?)", id)
		}
	}
	return nil
}

// computeLevels assigns each term its minimum depth from a root, with roots
// at level 1 (the paper's convention: "Level 1 = root level"). BFS from all
// roots simultaneously.
func (o *Ontology) computeLevels() {
	o.levels = make(map[TermID]int, len(o.terms))
	queue := make([]TermID, 0, len(o.roots))
	for _, r := range o.roots {
		o.levels[r] = 1
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, c := range o.children[id] {
			if _, seen := o.levels[c]; !seen {
				o.levels[c] = o.levels[id] + 1
				queue = append(queue, c)
			}
		}
	}
}

// computeDescendantCounts counts, for every term, the number of distinct
// proper descendants. Processed in reverse topological order with set union
// (a DAG descendant can be reachable via several children, so counts cannot
// simply be summed).
func (o *Ontology) computeDescendantCounts() {
	o.descCount = make(map[TermID]int, len(o.terms))
	topo := o.topoOrder()
	// For moderate ontology sizes a per-term bitset over a dense index is
	// compact and fast.
	idx := make(map[TermID]int, len(o.terms))
	for i, id := range o.order {
		idx[id] = i
	}
	words := (len(o.order) + 63) / 64
	sets := make(map[TermID][]uint64, len(o.terms))
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		set := make([]uint64, words)
		for _, c := range o.children[id] {
			ci := idx[c]
			set[ci/64] |= 1 << (ci % 64)
			for w, bits := range sets[c] {
				set[w] |= bits
			}
		}
		sets[id] = set
		n := 0
		for _, w := range set {
			n += popcount(w)
		}
		o.descCount[id] = n
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// topoOrder returns the terms in a parent-before-child order.
func (o *Ontology) topoOrder() []TermID {
	indeg := make(map[TermID]int, len(o.terms))
	for _, id := range o.order {
		indeg[id] = len(o.terms[id].Parents)
	}
	queue := append([]TermID(nil), o.roots...)
	out := make([]TermID, 0, len(o.terms))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		out = append(out, id)
		for _, c := range o.children[id] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	return out
}

// Term returns the term with the given ID, or nil if absent.
func (o *Ontology) Term(id TermID) *Term { return o.terms[id] }

// Len returns the number of terms.
func (o *Ontology) Len() int { return len(o.terms) }

// TermIDs returns all term IDs in insertion order. The returned slice is
// shared; callers must not modify it.
func (o *Ontology) TermIDs() []TermID { return o.order }

// Roots returns the root term IDs.
func (o *Ontology) Roots() []TermID { return o.roots }

// Parents returns the direct parents of id, or nil for unknown terms.
func (o *Ontology) Parents(id TermID) []TermID {
	if t := o.terms[id]; t != nil {
		return t.Parents
	}
	return nil
}

// Level returns the term's level with roots at level 1, or 0 for unknown
// terms.
func (o *Ontology) Level(id TermID) int { return o.levels[id] }

// MaxLevel returns the deepest level present in the ontology.
func (o *Ontology) MaxLevel() int {
	m := 0
	for _, l := range o.levels {
		if l > m {
			m = l
		}
	}
	return m
}

// TermsAtLevel returns the IDs of all terms at the given level, in insertion
// order.
func (o *Ontology) TermsAtLevel(level int) []TermID {
	var out []TermID
	for _, id := range o.order {
		if o.levels[id] == level {
			out = append(out, id)
		}
	}
	return out
}

// Descendants returns the set of proper descendants of id.
func (o *Ontology) Descendants(id TermID) []TermID {
	seen := map[TermID]bool{}
	var out []TermID
	stack := append([]TermID(nil), o.children[id]...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
		stack = append(stack, o.children[n]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Ancestors returns the set of proper ancestors of id, sorted by ID.
func (o *Ontology) Ancestors(id TermID) []TermID {
	seen := map[TermID]bool{}
	var out []TermID
	stack := append([]TermID(nil), o.Parents(id)...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
		stack = append(stack, o.Parents(n)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InformationContent returns I(C) = log(1/p(C)) with
// p(C) = (#descendants(C)+1) / #terms. The +1 (counting the term itself)
// departs from the paper's formula only to keep I finite for leaves; the
// ordering — more general terms have lower information content — is
// preserved. Returns 0 for unknown terms or an empty ontology.
func (o *Ontology) InformationContent(id TermID) float64 {
	if len(o.terms) == 0 {
		return 0
	}
	if _, ok := o.terms[id]; !ok {
		return 0
	}
	p := float64(o.descCount[id]+1) / float64(len(o.terms))
	return math.Log(1 / p)
}

// RateOfDecay returns I(ancs)/I(desc) per the paper's §4: the factor by
// which scores inherited from an ancestor context are damped to reflect the
// ancestor's lower informativeness. It is ≤ 1 whenever ancs is a proper
// ancestor of desc; returns 1 when either information content is
// non-positive (degenerate root case).
func (o *Ontology) RateOfDecay(ancs, desc TermID) float64 {
	ia, id := o.InformationContent(ancs), o.InformationContent(desc)
	if ia <= 0 || id <= 0 {
		return 1
	}
	return ia / id
}
