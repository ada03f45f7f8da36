package search

import "sync/atomic"

// MergeStats are the cumulative counters of the prestige merge since
// construction or the last ResetMergeStats, summed over all queries (each
// query accumulates locally and flushes once).
type MergeStats struct {
	// Exhaustive and Bounded count merges by path: every hit ranked, or a
	// page selected window by window (Limit > 0 smaller than the hit list).
	Exhaustive uint64 `json:"exhaustive"`
	Bounded    uint64 `json:"bounded"`
	// HitsMerged counts the hits folded against their contexts; a bounded
	// merge that terminates early folds fewer than the index pass returned.
	HitsMerged uint64 `json:"hits_merged"`
	// WindowsScored counts the hit windows bounded merges folded, and
	// WindowBreaks the bounded merges that stopped before the last window
	// because no remaining hit could reach the page.
	WindowsScored uint64 `json:"windows_scored"`
	WindowBreaks  uint64 `json:"window_breaks"`
}

// fields lists the counters in a fixed order, so the atomic form cannot miss
// one.
func (st *MergeStats) fields() [5]*uint64 {
	return [5]*uint64{&st.Exhaustive, &st.Bounded, &st.HitsMerged, &st.WindowsScored, &st.WindowBreaks}
}

// mergeCounters is the engine's atomic form of MergeStats, in fields order.
type mergeCounters [5]atomic.Uint64

// add flushes one query's counters; zero deltas cost no atomic operation.
func (c *mergeCounters) add(st *MergeStats) {
	for i, f := range st.fields() {
		if *f != 0 {
			c[i].Add(*f)
		}
	}
}

// MergeStats returns the merge's cumulative counters — the server surfaces
// them per generation under /stats.
func (e *Engine) MergeStats() MergeStats {
	var st MergeStats
	for i, f := range st.fields() {
		*f = e.merge[i].Load()
	}
	return st
}

// ResetMergeStats zeroes the merge counters; the server calls it when a
// generation is installed.
func (e *Engine) ResetMergeStats() {
	for i := range e.merge {
		e.merge[i].Store(0)
	}
}
