package vector

import (
	"fmt"
	"math"
)

// DF is a corpus dictionary with document frequencies, for TF-IDF
// weighting: the corpus's distinct terms in lexicographic order, term i
// having ID i, and per ID the number of documents holding the term. Every
// term-ID table of the system — token streams, TF-IDF rows, the inverted
// index — is indexed by these IDs, so numeric ID order is sorted-string
// order.
type DF struct {
	docs  int
	terms []string
	ids   map[string]int32
	df    []int32
	idf   []float64
}

// NewDF returns the table over docs documents in which terms[i] occurs in
// df[i] of them. terms must be strictly ascending, and every df[i] in
// [1, docs]: a dictionary term occurs in some document and in no more than
// all of them. The table keeps both slices; callers must not modify them
// afterwards.
func NewDF(docs int, terms []string, df []int32) (*DF, error) {
	if len(terms) != len(df) {
		return nil, fmt.Errorf("vector: %d terms with %d document frequencies", len(terms), len(df))
	}
	d := &DF{docs: docs, terms: terms, ids: make(map[string]int32, len(terms)), df: df, idf: make([]float64, len(terms))}
	for i, t := range terms {
		if i > 0 && terms[i-1] >= t {
			return nil, fmt.Errorf("vector: DF terms not strictly ascending at %d (%q)", i, t)
		}
		if df[i] < 1 || int(df[i]) > docs {
			return nil, fmt.Errorf("vector: term %q occurs in %d of %d documents", t, df[i], docs)
		}
		d.ids[t] = int32(i)
		d.idf[i] = idf(docs, int(df[i]))
	}
	return d, nil
}

// idf is the smoothed inverse document frequency log(1 + N/df), with a df
// of 0 (a term never seen, see IDF) counted as 1.
func idf(docs, df int) float64 {
	if df == 0 {
		df = 1
	}
	return math.Log(1 + float64(docs)/float64(df))
}

// Terms returns the dictionary in ID order; the slice must not be modified.
func (d *DF) Terms() []string { return d.terms }

// ID returns a term's dictionary ID, and false when the corpus lacks it.
func (d *DF) ID(t string) (int32, bool) {
	id, ok := d.ids[t]
	return id, ok
}

// Counts returns the document count and the per-ID document frequencies;
// the slice must not be modified.
func (d *DF) Counts() (int, []int32) { return d.docs, d.df }

// IDFs returns every term's IDF by ID; the slice must not be modified.
func (d *DF) IDFs() []float64 { return d.idf }

// IDF returns the smoothed inverse document frequency log(1 + N/df(t));
// terms never seen get the maximal IDF log(1+N).
func (d *DF) IDF(t string) float64 {
	if id, ok := d.ids[t]; ok {
		return d.idf[id]
	}
	return idf(d.docs, 0)
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
