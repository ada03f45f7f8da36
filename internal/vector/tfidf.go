package vector

import "math"

// DF holds corpus document frequencies for TF-IDF weighting. Build one with
// NewDF and feed it every document's term support once.
type DF struct {
	docs int
	df   map[string]int
}

// NewDF returns an empty document-frequency table.
func NewDF() *DF { return &DF{df: make(map[string]int)} }

// AddDoc records one document's term support (each distinct term counted
// once, regardless of its in-document frequency).
func (d *DF) AddDoc(terms Sparse) {
	d.docs++
	for t := range terms {
		d.df[t]++
	}
}

// Merge folds another DF table into d. Because document frequencies are
// integer counts, merging per-shard tables yields exactly the table a
// sequential AddDoc pass over the same documents would, in any merge order —
// the property the sharded corpus analyzer relies on.
func (d *DF) Merge(o *DF) {
	if o == nil {
		return
	}
	d.docs += o.docs
	for t, n := range o.df {
		d.df[t] += n
	}
}

// IDF returns the smoothed inverse document frequency
// log(1 + N/df(t)); terms never seen get the maximal IDF log(1+N).
func (d *DF) IDF(t string) float64 {
	df := d.df[t]
	if df == 0 {
		df = 1
	}
	return math.Log(1 + float64(d.docs)/float64(df))
}

// Weight converts a raw term-frequency vector into a TF-IDF vector using
// logarithmic term-frequency damping: w = (1 + ln tf) · idf. The input is
// not modified.
func (d *DF) Weight(tf Sparse) Sparse {
	out := make(Sparse, len(tf))
	for t, f := range tf {
		if f <= 0 {
			continue
		}
		out[t] = (1 + math.Log(f)) * d.IDF(t)
	}
	return out
}

// FromCounts constructs a DF table directly from a document count and
// per-term document frequencies, taking ownership of the map — the state
// deserialization path. Weighting under the reconstructed table is
// bit-identical to the original's (IDF depends only on docs and the
// per-term counts).
func FromCounts(docs int, df map[string]int) *DF {
	if df == nil {
		df = make(map[string]int)
	}
	return &DF{docs: docs, df: df}
}

// Counts returns the document count and a copy of the per-term document
// frequencies — the serialization inverse of FromCounts.
func (d *DF) Counts() (int, map[string]int) {
	out := make(map[string]int, len(d.df))
	for t, n := range d.df {
		out[t] = n
	}
	return d.docs, out
}
