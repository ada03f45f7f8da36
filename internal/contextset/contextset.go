// Package contextset implements the query-independent pre-processing step 1
// of the paper: assigning papers to ontology-term contexts. It builds the
// two context paper sets of §4 — the text-based set (similarity to a
// representative paper) and the simplified pattern-based set (middle-tuple
// matching, descendant folding, ancestor fallback with RateOfDecay) — which
// the prestige score functions and the evaluation run on.
package contextset

import (
	"fmt"
	"sort"
	"sync"

	"ctxsearch/internal/bitset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/par"
	"ctxsearch/internal/pattern"
	"ctxsearch/internal/vector"
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

// Config configures context paper set construction.
type Config struct {
	// TextThreshold is the minimum cosine similarity to the representative
	// paper for membership in the text-based set.
	TextThreshold float64
	// TopContextsPerPaper additionally assigns every paper to its M
	// best-matching contexts even below the threshold. This is what makes
	// upper-level contexts large and diverse (generic papers land in the
	// broad contexts they match best, with low absolute similarity) — the
	// structure behind the paper's Figure 5.5 separability observation.
	TopContextsPerPaper int
	// MaxPerContext caps context size in the text-based set (0 = no cap);
	// the highest-similarity papers win.
	MaxPerContext int
	// PatternThreshold is the minimum max-normalised pattern match score
	// for membership in the pattern-based set.
	PatternThreshold float64
	// PatternConfig configures pattern construction for the pattern-based
	// set; the simplified §4 variant forces Extended off and middle-only
	// matching regardless of this value.
	PatternConfig pattern.Config
	// Workers bounds construction parallelism (0 = GOMAXPROCS, 1 = serial).
	// Results are identical at any setting.
	Workers int
}

// DefaultConfig returns thresholds used by the experiments, calibrated on
// the synthetic corpus where unrelated-pair full-text cosines sit around
// 0.2 and same-topic pairs above 0.5.
func DefaultConfig() Config {
	return Config{
		TextThreshold:       0.35,
		TopContextsPerPaper: 2,
		MaxPerContext:       0,
		PatternThreshold:    0.20,
		PatternConfig:       pattern.DefaultConfig(),
	}
}

// membership records one paper's membership in one context.
type membership struct {
	score float64 // assignment strength in [0,1] (1 for evidence papers)
}

// ContextSet is an immutable paper-to-context assignment.
//
// Two backings exist: the map form (members), produced by the builders,
// and the frozen flat form (frozen), produced by FromFrozen over borrowed
// CSR/bitmap arrays — typically aliasing a memory-mapped state file. Exactly one is non-nil; every accessor branches on it and
// returns identical results either way (golden-tested).
type ContextSet struct {
	kind    Kind
	onto    *ontology.Ontology
	members map[ontology.TermID]map[corpus.PaperID]membership
	frozen  *frozenSet
	reps    map[ontology.TermID]corpus.PaperID
	// decay[ctx] < 1 when ctx inherited its papers from an ancestor.
	decay map[ontology.TermID]float64
	// inheritedFrom[ctx] is set when ctx's paper set came from an ancestor.
	inheritedFrom map[ontology.TermID]ontology.TermID

	// bitsets lazily caches each context's paper set as a bitmap — the
	// O(1)-membership representation the query hot path filters with.
	bitsetMu sync.Mutex
	bitsets  map[ontology.TermID]bitset.Set
}

func newContextSet(kind Kind, onto *ontology.Ontology) *ContextSet {
	return &ContextSet{
		kind:          kind,
		onto:          onto,
		members:       make(map[ontology.TermID]map[corpus.PaperID]membership),
		reps:          make(map[ontology.TermID]corpus.PaperID),
		decay:         make(map[ontology.TermID]float64),
		inheritedFrom: make(map[ontology.TermID]ontology.TermID),
	}
}

// Kind returns how the set was constructed.
func (cs *ContextSet) Kind() Kind { return cs.kind }

// Ontology returns the context hierarchy.
func (cs *ContextSet) Ontology() *ontology.Ontology { return cs.onto }

// Contexts returns all non-empty contexts sorted by term ID.
func (cs *ContextSet) Contexts() []ontology.TermID {
	if f := cs.frozen; f != nil {
		out := make([]ontology.TermID, 0, len(f.ctxs))
		for i, ctx := range f.ctxs {
			if f.offsets[i] < f.offsets[i+1] {
				out = append(out, ctx)
			}
		}
		return out
	}
	out := make([]ontology.TermID, 0, len(cs.members))
	for t, m := range cs.members {
		if len(m) > 0 {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ContextsWithMinSize returns non-empty contexts with more than min papers,
// sorted by term ID — the paper excludes contexts with ≤ 100 papers.
func (cs *ContextSet) ContextsWithMinSize(min int) []ontology.TermID {
	if f := cs.frozen; f != nil {
		var out []ontology.TermID
		for i, ctx := range f.ctxs {
			if int(f.offsets[i+1]-f.offsets[i]) > min {
				out = append(out, ctx)
			}
		}
		return out
	}
	var out []ontology.TermID
	for t, m := range cs.members {
		if len(m) > min {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Papers returns the papers of a context in ID order.
func (cs *ContextSet) Papers(ctx ontology.TermID) []corpus.PaperID {
	if f := cs.frozen; f != nil {
		i, ok := f.ord[ctx]
		if !ok {
			return []corpus.PaperID{}
		}
		docs, _ := f.run(i)
		return append([]corpus.PaperID{}, docs...)
	}
	m := cs.members[ctx]
	out := make([]corpus.PaperID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PaperSet returns the membership set of a context; the map is shared and
// must not be modified.
func (cs *ContextSet) PaperSet(ctx ontology.TermID) map[corpus.PaperID]bool {
	if f := cs.frozen; f != nil {
		i, ok := f.ord[ctx]
		if !ok {
			return map[corpus.PaperID]bool{}
		}
		docs, _ := f.run(i)
		out := make(map[corpus.PaperID]bool, len(docs))
		for _, id := range docs {
			out[id] = true
		}
		return out
	}
	m := cs.members[ctx]
	out := make(map[corpus.PaperID]bool, len(m))
	for id := range m {
		out[id] = true
	}
	return out
}

// PaperBitset returns the membership of a context as a bitmap over paper
// IDs. The set is computed once per context, cached, and shared: callers
// must not modify it (union into a fresh set with bitset.Clone/UnionWith).
// Safe for concurrent use.
func (cs *ContextSet) PaperBitset(ctx ontology.TermID) bitset.Set {
	if f := cs.frozen; f != nil {
		// The bitmap runs are precomputed in the frozen arrays: no lock, no
		// cache, no allocation — and identical to what the lazy path builds.
		i, ok := f.ord[ctx]
		if !ok {
			return nil
		}
		return f.bits(i)
	}
	cs.bitsetMu.Lock()
	defer cs.bitsetMu.Unlock()
	if cs.bitsets == nil {
		cs.bitsets = make(map[ontology.TermID]bitset.Set)
	}
	if b, ok := cs.bitsets[ctx]; ok {
		return b
	}
	var b bitset.Set
	for id := range cs.members[ctx] {
		b.Add(int(id))
	}
	cs.bitsets[ctx] = b
	return b
}

// Size returns the number of papers in a context.
func (cs *ContextSet) Size(ctx ontology.TermID) int {
	if f := cs.frozen; f != nil {
		i, ok := f.ord[ctx]
		if !ok {
			return 0
		}
		return int(f.offsets[i+1] - f.offsets[i])
	}
	return len(cs.members[ctx])
}

// Contains reports membership of a paper in a context.
func (cs *ContextSet) Contains(ctx ontology.TermID, p corpus.PaperID) bool {
	if f := cs.frozen; f != nil {
		i, ok := f.ord[ctx]
		return ok && f.bits(i).Contains(int(p))
	}
	_, ok := cs.members[ctx][p]
	return ok
}

// AssignScore returns the assignment strength of a paper in a context
// (0 when not a member).
func (cs *ContextSet) AssignScore(ctx ontology.TermID, p corpus.PaperID) float64 {
	if f := cs.frozen; f != nil {
		i, ok := f.ord[ctx]
		if !ok {
			return 0
		}
		docs, scores := f.run(i)
		if k := searchPapers(docs, p); k < len(docs) && docs[k] == p {
			return scores[k]
		}
		return 0
	}
	return cs.members[ctx][p].score
}

// searchPapers returns the first index of s whose value is >= v (len(s)
// when none is).
func searchPapers(s []corpus.PaperID, v corpus.PaperID) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Representative returns the representative paper of a context in the
// text-based set.
func (cs *ContextSet) Representative(ctx ontology.TermID) (corpus.PaperID, bool) {
	r, ok := cs.reps[ctx]
	return r, ok
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
	if f := cs.frozen; f != nil {
		var out []ontology.TermID
		for i, ctx := range f.ctxs {
			if f.bits(int32(i)).Contains(int(p)) {
				out = append(out, ctx)
			}
		}
		return out
	}
	var out []ontology.TermID
	for t, m := range cs.members {
		if _, ok := m[p]; ok {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (cs *ContextSet) add(ctx ontology.TermID, p corpus.PaperID, score float64) {
	if cs.frozen != nil {
		panic("contextset: add on a frozen set")
	}
	if score > 1 {
		score = 1 // guard against cosine rounding slightly above 1
	}
	m := cs.members[ctx]
	if m == nil {
		m = make(map[corpus.PaperID]membership)
		cs.members[ctx] = m
	}
	if prev, ok := m[p]; !ok || score > prev.score {
		m[p] = membership{score: score}
	}
}

// chooseRepresentative picks the evidence paper with the highest cosine to
// the evidence centroid (ties: lowest ID). With a single evidence paper it
// is the representative.
func chooseRepresentative(a *corpus.Analyzer, evidence []corpus.PaperID) corpus.PaperID {
	if len(evidence) == 1 {
		return evidence[0]
	}
	vecs := make([]vector.Sparse, len(evidence))
	for i, id := range evidence {
		vecs[i] = a.TFIDFAll(id)
	}
	centroid := vector.Centroid(vecs)
	best := evidence[0]
	bestSim := -1.0
	for i, id := range evidence {
		if sim := vector.Cosine(centroid, vecs[i]); sim > bestSim {
			bestSim = sim
			best = id
		}
	}
	return best
}

// BuildPatternBased constructs the simplified pattern-based context paper
// set of §4: per-term regular patterns matched by middle tuple only;
// max-normalised match scores above cfg.PatternThreshold grant membership;
// descendant papers are folded into ancestors; contexts still empty inherit
// the closest non-empty ancestor's papers with RateOfDecay damping.
func BuildPatternBased(ix *pattern.PosIndex, a *corpus.Analyzer, onto *ontology.Ontology, cfg Config) *ContextSet {
	cs := newContextSet(PatternBased, onto)
	c := a.Corpus()
	pcfg := cfg.PatternConfig
	pcfg.Extended = false // simplified variant
	termDF := pattern.TermWordDF(onto, ix)
	mcfg := pattern.DefaultMatchConfig()
	mcfg.MiddleOnly = true

	terms := make([]ontology.TermID, 0, len(c.EvidenceTerms()))
	for _, term := range c.EvidenceTerms() {
		if onto.Term(term) != nil {
			terms = append(terms, term)
		}
	}
	type termResult struct {
		term   ontology.TermID
		scores map[corpus.PaperID]float64
	}
	results := make([]termResult, len(terms))
	par.For(len(terms), cfg.Workers, func(i int) {
		term := terms[i]
		training := c.EvidencePapers(term)
		set := pattern.Build(ix, onto, term, training, termDF, pcfg)
		scores := set.ScorePapers(ix, nil, mcfg)
		results[i] = termResult{term, scores}
	})
	for i, term := range terms {
		scores := results[i].scores
		var max float64
		for _, s := range scores {
			if s > max {
				max = s
			}
		}
		if max > 0 {
			for id, s := range scores {
				if norm := s / max; norm >= cfg.PatternThreshold {
					cs.add(term, id, norm)
				}
			}
		}
		for _, e := range c.EvidencePapers(term) {
			cs.add(term, e, 1)
		}
	}

	// Fold descendant papers into ancestors (children before parents).
	foldDescendants(cs, onto)
	// Ancestor fallback for empty contexts, parents before children so a
	// chain of empty descendants inherits from the nearest originally
	// non-empty ancestor transitively.
	inheritFromAncestors(cs, onto)
	return cs
}

// foldDescendants adds every context's papers to all its ancestors,
// preserving the highest assignment score.
func foldDescendants(cs *ContextSet, onto *ontology.Ontology) {
	// Iterate terms deepest-first so scores propagate in one pass.
	terms := append([]ontology.TermID(nil), onto.TermIDs()...)
	sort.Slice(terms, func(i, j int) bool {
		li, lj := onto.Level(terms[i]), onto.Level(terms[j])
		if li != lj {
			return li > lj
		}
		return terms[i] < terms[j]
	})
	for _, t := range terms {
		m := cs.members[t]
		if len(m) == 0 {
			continue
		}
		for _, parent := range onto.Parents(t) {
			if onto.Level(parent) < 2 {
				continue // roots are not contexts
			}
			for id, mem := range m {
				cs.add(parent, id, mem.score)
			}
		}
	}
}

// inheritFromAncestors assigns, to every still-empty non-root context, the
// paper set of its closest non-empty ancestor, recording the RateOfDecay.
func inheritFromAncestors(cs *ContextSet, onto *ontology.Ontology) {
	terms := append([]ontology.TermID(nil), onto.TermIDs()...)
	sort.Slice(terms, func(i, j int) bool {
		li, lj := onto.Level(terms[i]), onto.Level(terms[j])
		if li != lj {
			return li < lj
		}
		return terms[i] < terms[j]
	})
	for _, t := range terms {
		if onto.Level(t) < 2 || len(cs.members[t]) > 0 {
			continue
		}
		anc, ok := closestNonEmptyAncestor(cs, onto, t)
		if !ok {
			continue
		}
		src := cs.members[anc]
		for id, mem := range src {
			cs.add(t, id, mem.score)
		}
		// If the ancestor itself inherited, decay compounds from the
		// original source.
		origin := anc
		if from, inherited := cs.inheritedFrom[anc]; inherited {
			origin = from
		}
		cs.inheritedFrom[t] = origin
		cs.decay[t] = onto.RateOfDecay(origin, t)
	}
}

// closestNonEmptyAncestor walks up the hierarchy breadth-first and returns
// the nearest ancestor (by level distance) with a non-empty paper set.
func closestNonEmptyAncestor(cs *ContextSet, onto *ontology.Ontology, t ontology.TermID) (ontology.TermID, bool) {
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
			if onto.Level(a) >= 2 && len(cs.members[a]) > 0 {
				return a, true
			}
			next = append(next, onto.Parents(a)...)
		}
		frontier = next
	}
	return "", false
}
