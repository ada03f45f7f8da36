package citegraph

import (
	"fmt"
	"math"
)

func sqrt(x float64) float64 { return math.Sqrt(x) }

// Teleport selects the PageRank teleport (hidden-link) vector E of the
// paper's §3.1 recurrence  P(i+1) = (1−d)·MᵀP(i) + E.
type Teleport int

const (
	// TeleportE1 is the paper's first option, E1 = d: a constant teleport
	// contribution per node. The iterate is L1-normalised each step, since
	// a constant vector does not preserve total mass.
	TeleportE1 Teleport = iota
	// TeleportE2 is the paper's second option, E2 = (d/N)·[1ₙ]P(i): the
	// current total mass redistributed uniformly, which keeps ΣP = 1
	// exactly (the standard PageRank teleport).
	TeleportE2
)

// String returns the teleport variant name.
func (t Teleport) String() string {
	switch t {
	case TeleportE1:
		return "E1"
	case TeleportE2:
		return "E2"
	default:
		return fmt.Sprintf("Teleport(%d)", int(t))
	}
}

// The power iteration's settings (§3.1): the teleport probability d — the
// link-following weight is 1−d — the iteration cap and the L1 convergence
// tolerance. HITS iterates under the same cap and tolerance.
const (
	damping = 0.15
	maxIter = 100
	tol     = 1e-9
)

// PageRank computes the paper's PageRank variant over g and returns one
// score per node, L1-normalised (ΣP = 1). Dangling nodes (no outgoing
// citations) distribute their mass uniformly, the standard correction; an
// empty graph returns nil and a single node gets score 1.
func PageRank(g *Graph, tp Teleport) []float64 {
	return PageRankScratch(g, tp, nil)
}

// PageRankScratch is PageRank with the power-iteration vectors drawn from a
// caller-owned arena, so a worker scoring thousands of per-context
// subgraphs allocates its rank buffers once. The returned slice aliases the
// arena and is only valid until its next use — copy out anything kept. A
// nil scratch allocates fresh vectors (PageRank's behaviour); results are
// bit-identical either way.
func PageRankScratch(g *Graph, tp Teleport, s *Scratch) []float64 {
	n := g.Len()
	if n == 0 {
		return nil
	}
	var p, next []float64
	if s != nil {
		p, next = s.ranks(n)
	} else {
		p = make([]float64, n)
		next = make([]float64, n)
	}
	for i := range p {
		p[i] = 1 / float64(n)
	}
	link := 1 - damping
	for iter := 0; iter < maxIter; iter++ {
		// Mass from dangling nodes, spread uniformly.
		var dangling float64
		for i := 0; i < n; i++ {
			if len(g.out[i]) == 0 {
				dangling += p[i]
			}
		}
		base := link * dangling / float64(n)
		for i := range next {
			next[i] = base
		}
		for i := 0; i < n; i++ {
			if len(g.out[i]) == 0 {
				continue
			}
			share := link * p[i] / float64(len(g.out[i]))
			for _, j := range g.out[i] {
				next[j] += share
			}
		}
		switch tp {
		case TeleportE1:
			for i := range next {
				next[i] += damping
			}
			normalizeL1(next)
		default: // TeleportE2
			var total float64
			for _, x := range p {
				total += x
			}
			add := damping * total / float64(n)
			for i := range next {
				next[i] += add
			}
		}
		var delta float64
		for i := range p {
			delta += math.Abs(next[i] - p[i])
		}
		p, next = next, p
		if delta < tol {
			break
		}
	}
	if s != nil {
		// The swaps may have crossed the arena's two vectors; hand them
		// back so the next call reuses both.
		s.p, s.next = p, next
	}
	normalizeL1(p)
	return p
}

func normalizeL1(v []float64) {
	var s float64
	for _, x := range v {
		s += x
	}
	if s == 0 {
		return
	}
	for i := range v {
		v[i] /= s
	}
}

// HITS computes Kleinberg's hubs-and-authorities scores by power iteration
// with L2 normalisation each step. Returns (authority, hub) slices; nil for
// an empty graph.
func HITS(g *Graph) (auth, hub []float64) {
	n := g.Len()
	if n == 0 {
		return nil, nil
	}
	auth = make([]float64, n)
	hub = make([]float64, n)
	for i := range auth {
		auth[i] = 1
		hub[i] = 1
	}
	newAuth := make([]float64, n)
	newHub := make([]float64, n)
	for iter := 0; iter < maxIter; iter++ {
		// authority(i) = Σ hub(j) over j citing i
		for i := 0; i < n; i++ {
			var s float64
			for _, j := range g.in[i] {
				s += hub[j]
			}
			newAuth[i] = s
		}
		// hub(i) = Σ authority(j) over j cited by i
		for i := 0; i < n; i++ {
			var s float64
			for _, j := range g.out[i] {
				s += newAuth[j]
			}
			newHub[i] = s
		}
		normalizeL2(newAuth)
		normalizeL2(newHub)
		var delta float64
		for i := range auth {
			delta += math.Abs(newAuth[i]-auth[i]) + math.Abs(newHub[i]-hub[i])
		}
		copy(auth, newAuth)
		copy(hub, newHub)
		if delta < tol {
			break
		}
	}
	return auth, hub
}

func normalizeL2(v []float64) {
	var s float64
	for _, x := range v {
		s += float64(x * x)
	}
	if s == 0 {
		return
	}
	s = math.Sqrt(s)
	for i := range v {
		v[i] /= s
	}
}
