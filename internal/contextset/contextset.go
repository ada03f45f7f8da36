// Package contextset implements the query-independent pre-processing step 1
// of the paper: assigning papers to ontology-term contexts. It builds the
// two context paper sets of §4 — the text-based set (similarity to a
// representative paper) and the simplified pattern-based set (middle-tuple
// matching, descendant folding, ancestor fallback with RateOfDecay) — which
// the prestige score functions and the evaluation run on.
package contextset

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"ctxsearch/internal/bitset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/par"
	"ctxsearch/internal/pattern"
)

// Kind identifies how a context paper set was constructed.
type Kind int

// Context paper set kinds.
const (
	TextBased Kind = iota
	PatternBased
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case TextBased:
		return "text-based"
	case PatternBased:
		return "pattern-based"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// The membership thresholds of the two sets, calibrated on the synthetic
// corpus, where unrelated-pair full-text cosines sit around 0.2 and
// same-topic pairs above 0.5.
const (
	// textThreshold is the minimum cosine similarity to the representative
	// paper for membership in the text-based set.
	textThreshold = 0.35
	// topContextsPerPaper additionally assigns every paper to its best
	// matching contexts, this many, even below the threshold. This is what
	// makes upper-level contexts large and diverse (generic papers land in
	// the broad contexts they match best, with low absolute similarity) —
	// the structure behind the paper's Figure 5.5 separability observation.
	topContextsPerPaper = 2
	// patternThreshold is the minimum max-normalised pattern match score
	// for membership in the pattern-based set.
	patternThreshold = 0.20
)

// ContextSet is an immutable paper-to-context assignment, held flat: member
// runs in CSR layout (context rows ascending by term ID, each run's papers
// ascending) — the one membership form, read by the query hot path and
// stored verbatim by the state file (Frozen). A paper → context transpose
// of the runs serves ContextsOf; it is derived in memory, never stored. The
// builders produce a set through builder.finish, a state file through
// FromFrozen; either way the slices are never mutated or appended to, so
// mapping-backed (read-only) memory is safe.
type ContextSet struct {
	kind Kind
	onto *ontology.Ontology

	ctxs    []ontology.TermID
	ord     map[ontology.TermID]int32 // context → its row in ctxs
	offsets []int32
	docs    []corpus.PaperID
	// byPaper transposes the runs: paper p's contexts are the rows
	// ctxOf[byPaper[p]:byPaper[p+1]], ascending.
	byPaper []int32
	ctxOf   []int32

	// decay[ctx] < 1 when ctx inherited its papers from an ancestor.
	decay map[ontology.TermID]float64
	// inheritedFrom[ctx] is set when ctx's paper set came from an ancestor.
	inheritedFrom map[ontology.TermID]ontology.TermID
}

// run returns the member run of the i-th context.
func (cs *ContextSet) run(i int32) []corpus.PaperID {
	return cs.docs[cs.offsets[i]:cs.offsets[i+1]]
}

// transpose fills byPaper and ctxOf from the runs, whose members are all
// below papers, in one pass over the members. Rows are visited in
// ascending order, so each paper's contexts come out ascending by term ID.
func (cs *ContextSet) transpose(papers int) {
	cs.byPaper = make([]int32, papers+1)
	for _, d := range cs.docs {
		cs.byPaper[d+1]++
	}
	for p := range papers {
		cs.byPaper[p+1] += cs.byPaper[p]
	}
	next := slices.Clone(cs.byPaper[:papers])
	cs.ctxOf = make([]int32, len(cs.docs))
	for i := range cs.ctxs {
		for _, d := range cs.run(int32(i)) {
			cs.ctxOf[next[d]] = int32(i)
			next[d]++
		}
	}
}

// papers returns the paper count of the corpus the set was built over.
func (cs *ContextSet) papers() int { return len(cs.byPaper) - 1 }

// Kind returns how the set was constructed.
func (cs *ContextSet) Kind() Kind { return cs.kind }

// Ontology returns the context hierarchy.
func (cs *ContextSet) Ontology() *ontology.Ontology { return cs.onto }

// Contexts returns all non-empty contexts sorted by term ID.
func (cs *ContextSet) Contexts() []ontology.TermID {
	out := make([]ontology.TermID, 0, len(cs.ctxs))
	for i, ctx := range cs.ctxs {
		if cs.offsets[i] < cs.offsets[i+1] {
			out = append(out, ctx)
		}
	}
	return out
}

// ContextsWithMinSize returns non-empty contexts with more than min papers,
// sorted by term ID — the paper excludes contexts with ≤ 100 papers.
func (cs *ContextSet) ContextsWithMinSize(min int) []ontology.TermID {
	var out []ontology.TermID
	for i, ctx := range cs.ctxs {
		if int(cs.offsets[i+1]-cs.offsets[i]) > min {
			out = append(out, ctx)
		}
	}
	return out
}

// Papers returns the papers of a context in ID order.
func (cs *ContextSet) Papers(ctx ontology.TermID) []corpus.PaperID {
	i, ok := cs.ord[ctx]
	if !ok {
		return []corpus.PaperID{}
	}
	return append([]corpus.PaperID{}, cs.run(i)...)
}

// PaperBitset returns the membership of a context as a new bitmap over
// paper IDs, ending at its last member (nil for an empty context).
//
// Deprecated: membership is the context's run; read it with Papers or
// Contains. Kept for bench/ref.go, and goes with the ROADMAP 1(e) unpin.
func (cs *ContextSet) PaperBitset(ctx ontology.TermID) bitset.Set {
	var out bitset.Set
	for _, p := range cs.Papers(ctx) {
		out.Add(int(p))
	}
	return out
}

// Size returns the number of papers in a context.
func (cs *ContextSet) Size(ctx ontology.TermID) int {
	i, ok := cs.ord[ctx]
	if !ok {
		return 0
	}
	return int(cs.offsets[i+1] - cs.offsets[i])
}

// Contains reports membership of a paper in a context, by binary search
// over the context's run.
func (cs *ContextSet) Contains(ctx ontology.TermID, p corpus.PaperID) bool {
	i, ok := cs.ord[ctx]
	if !ok {
		return false
	}
	_, found := slices.BinarySearch(cs.run(i), p)
	return found
}

// Decay returns the RateOfDecay multiplier of a context: 1 for contexts
// with their own papers, I(ancs)/I(desc) for contexts that inherited an
// ancestor's paper set.
func (cs *ContextSet) Decay(ctx ontology.TermID) float64 {
	if d, ok := cs.decay[ctx]; ok {
		return d
	}
	return 1
}

// InheritedFrom returns the ancestor a context inherited its papers from,
// if any.
func (cs *ContextSet) InheritedFrom(ctx ontology.TermID) (ontology.TermID, bool) {
	a, ok := cs.inheritedFrom[ctx]
	return a, ok
}

// ContextsOf returns the contexts containing a paper, sorted by term ID.
func (cs *ContextSet) ContextsOf(p corpus.PaperID) []ontology.TermID {
	if p < 0 || int(p) >= cs.papers() {
		return nil
	}
	var out []ontology.TermID
	for _, i := range cs.ctxOf[cs.byPaper[p]:cs.byPaper[p+1]] {
		out = append(out, cs.ctxs[i])
	}
	return out
}

// builder accumulates memberships while a set is constructed; finish turns
// it into the ContextSet. Nothing outside this package can reach one, so a
// ContextSet cannot change once it exists.
type builder struct {
	kind          Kind
	onto          *ontology.Ontology
	papers        int // the corpus's paper count, which bounds every member
	members       map[ontology.TermID]map[corpus.PaperID]struct{}
	decay         map[ontology.TermID]float64
	inheritedFrom map[ontology.TermID]ontology.TermID
}

func newBuilder(kind Kind, onto *ontology.Ontology, papers int) *builder {
	return &builder{
		kind:          kind,
		onto:          onto,
		papers:        papers,
		members:       make(map[ontology.TermID]map[corpus.PaperID]struct{}),
		decay:         make(map[ontology.TermID]float64),
		inheritedFrom: make(map[ontology.TermID]ontology.TermID),
	}
}

// add records p as a member of ctx; a repeated add is a no-op.
func (b *builder) add(ctx ontology.TermID, p corpus.PaperID) {
	m := b.members[ctx]
	if m == nil {
		m = make(map[corpus.PaperID]struct{})
		b.members[ctx] = m
	}
	m[p] = struct{}{}
}

// finish flattens the accumulated memberships. The layout is fully
// deterministic: contexts ascending by term ID, runs ascending by paper ID.
func (b *builder) finish() *ContextSet {
	ctxs := make([]ontology.TermID, 0, len(b.members))
	nnz := 0
	for t, m := range b.members {
		if len(m) > 0 {
			ctxs = append(ctxs, t)
			nnz += len(m)
		}
	}
	slices.Sort(ctxs)
	cs := &ContextSet{
		kind:          b.kind,
		onto:          b.onto,
		ctxs:          ctxs,
		ord:           make(map[ontology.TermID]int32, len(ctxs)),
		offsets:       make([]int32, len(ctxs)+1),
		docs:          make([]corpus.PaperID, 0, nnz),
		decay:         b.decay,
		inheritedFrom: b.inheritedFrom,
	}
	for i, ctx := range ctxs {
		m := b.members[ctx]
		lo := len(cs.docs)
		for id := range m {
			cs.docs = append(cs.docs, id)
		}
		slices.Sort(cs.docs[lo:])
		cs.ord[ctx] = int32(i)
		cs.offsets[i+1] = int32(len(cs.docs))
	}
	cs.transpose(b.papers)
	return cs
}

// Representative returns the representative paper of term: the evidence
// paper with the highest whole-text cosine to the evidence centroid (ties:
// lowest ID), or the one evidence paper there is. It is false when term has
// no evidence papers. It depends on the analyzer and the term's evidence
// only, so the text-based set and a text score over any set choose alike.
func Representative(a *corpus.Analyzer, term ontology.TermID) (corpus.PaperID, bool) {
	evidence := a.Corpus().EvidencePapers(term)
	switch len(evidence) {
	case 0:
		return 0, false
	case 1:
		return evidence[0], true
	}
	rows := make([]corpus.Row, len(evidence))
	for i, id := range evidence {
		rows[i] = a.Row(id, corpus.WholeText)
	}
	centroid := a.Centroid(rows)
	best := evidence[0]
	bestSim := -1.0
	for i, id := range evidence {
		if sim := centroid.Cosine(rows[i]); sim > bestSim {
			bestSim = sim
			best = id
		}
	}
	return best, true
}

// BuildPatternBased constructs the simplified pattern-based context paper
// set of §4: each term's regular patterns from the memo, matched by middle
// tuple only; max-normalised match scores of at least patternThreshold
// grant membership; descendant papers are folded into ancestors; contexts
// still empty inherit the closest non-empty ancestor's papers with
// RateOfDecay damping. Terms fan out over workers (≤ 0 selects GOMAXPROCS),
// each scoring its term into a pooled corpus-sized row and keeping only
// the papers it admits; the set is the same at every worker count.
func BuildPatternBased(m *pattern.Memo, onto *ontology.Ontology, workers int) *ContextSet {
	ix := m.Index()
	c := ix.Analyzer().Corpus()
	b := newBuilder(PatternBased, onto, c.Len())

	terms := make([]ontology.TermID, 0, len(c.EvidenceTerms()))
	for _, term := range c.EvidenceTerms() {
		if onto.Term(term) != nil {
			terms = append(terms, term)
		}
	}
	// admitted[i] is term i's admitted papers, ascending. A row is all
	// zeros in the pool.
	admitted := make([][]corpus.PaperID, len(terms))
	rows := sync.Pool{New: func() any { row := make([]float64, c.Len()); return &row }}
	par.For(len(terms), workers, func(i int) {
		row := rows.Get().(*[]float64)
		m.Set(terms[i]).ScorePapers(ix, nil, true, *row)
		max := slices.Max(*row)
		for id, s := range *row {
			if s > 0 && s/max >= patternThreshold {
				admitted[i] = append(admitted[i], corpus.PaperID(id))
			}
		}
		clear(*row)
		rows.Put(row)
	})
	for i, term := range terms {
		for _, id := range admitted[i] {
			b.add(term, id)
		}
		for _, e := range c.EvidencePapers(term) {
			b.add(term, e)
		}
	}

	// Fold descendant papers into ancestors (children before parents).
	foldDescendants(b, onto)
	// Ancestor fallback for empty contexts, parents before children so a
	// chain of empty descendants inherits from the nearest originally
	// non-empty ancestor transitively.
	inheritFromAncestors(b, onto)
	return b.finish()
}

// foldDescendants adds every context's papers to all its ancestors.
func foldDescendants(b *builder, onto *ontology.Ontology) {
	// Iterate terms deepest-first so papers propagate in one pass.
	terms := append([]ontology.TermID(nil), onto.TermIDs()...)
	sort.Slice(terms, func(i, j int) bool {
		li, lj := onto.Level(terms[i]), onto.Level(terms[j])
		if li != lj {
			return li > lj
		}
		return terms[i] < terms[j]
	})
	for _, t := range terms {
		m := b.members[t]
		if len(m) == 0 {
			continue
		}
		for _, parent := range onto.Parents(t) {
			if onto.Level(parent) < 2 {
				continue // roots are not contexts
			}
			for id := range m {
				b.add(parent, id)
			}
		}
	}
}

// inheritFromAncestors assigns, to every still-empty non-root context, the
// paper set of its closest non-empty ancestor, recording the RateOfDecay.
func inheritFromAncestors(b *builder, onto *ontology.Ontology) {
	terms := append([]ontology.TermID(nil), onto.TermIDs()...)
	sort.Slice(terms, func(i, j int) bool {
		li, lj := onto.Level(terms[i]), onto.Level(terms[j])
		if li != lj {
			return li < lj
		}
		return terms[i] < terms[j]
	})
	for _, t := range terms {
		if onto.Level(t) < 2 || len(b.members[t]) > 0 {
			continue
		}
		anc, ok := closestNonEmptyAncestor(b, onto, t)
		if !ok {
			continue
		}
		for id := range b.members[anc] {
			b.add(t, id)
		}
		// If the ancestor itself inherited, decay compounds from the
		// original source.
		origin := anc
		if from, inherited := b.inheritedFrom[anc]; inherited {
			origin = from
		}
		b.inheritedFrom[t] = origin
		b.decay[t] = onto.RateOfDecay(origin, t)
	}
}

// closestNonEmptyAncestor walks up the hierarchy breadth-first and returns
// the nearest ancestor (by level distance) with a non-empty paper set.
func closestNonEmptyAncestor(b *builder, onto *ontology.Ontology, t ontology.TermID) (ontology.TermID, bool) {
	frontier := append([]ontology.TermID(nil), onto.Parents(t)...)
	seen := map[ontology.TermID]bool{}
	for len(frontier) > 0 {
		var next []ontology.TermID
		// Deterministic: inspect the frontier in sorted order.
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		for _, a := range frontier {
			if seen[a] {
				continue
			}
			seen[a] = true
			if onto.Level(a) >= 2 && len(b.members[a]) > 0 {
				return a, true
			}
			next = append(next, onto.Parents(a)...)
		}
		frontier = next
	}
	return "", false
}
