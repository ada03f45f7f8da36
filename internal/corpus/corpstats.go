package corpus

import (
	"sort"
)

// Stats summarises a corpus's structure — the numbers a database operator
// inspects before indexing (and that validate the synthetic generator
// against the real-corpus properties the paper relies on).
type Stats struct {
	Papers int
	// Token statistics over all sections (stemmed, stopword-filtered).
	TotalTokens int
	MeanTokens  float64
	Vocabulary  int
	// Citation-graph statistics.
	TotalCitations  int
	MeanOutDegree   float64
	MaxInDegree     int
	UncitedFraction float64
	// Topic/evidence statistics.
	EvidenceTerms  int
	EvidencePapers int
	MeanTopics     float64
	// Year range.
	MinYear, MaxYear int
}

// ComputeStats analyses a corpus. The analyzer parameter supplies token
// statistics; pass nil to skip them (cheaper).
func ComputeStats(c *Corpus, a *Analyzer) Stats {
	st := Stats{Papers: c.Len()}
	if c.Len() == 0 {
		return st
	}
	st.MinYear = c.Papers()[0].Year
	var vocab []bool
	if a != nil {
		vocab = make([]bool, len(a.DF().Terms()))
	}
	evidencePapers := 0
	topicSum := 0
	uncited := 0
	for _, p := range c.Papers() {
		if p.Year < st.MinYear {
			st.MinYear = p.Year
		}
		if p.Year > st.MaxYear {
			st.MaxYear = p.Year
		}
		st.TotalCitations += len(p.References)
		in := len(c.CitedBy(p.ID))
		if in > st.MaxInDegree {
			st.MaxInDegree = in
		}
		if in == 0 {
			uncited++
		}
		if p.Evidence {
			evidencePapers++
		}
		topicSum += len(p.Topics)
		if a != nil {
			toks := a.Tokens(p.ID).IDs
			st.TotalTokens += len(toks)
			for _, id := range toks {
				if id != NoTerm && !vocab[id] {
					vocab[id] = true
					st.Vocabulary++
				}
			}
		}
	}
	st.MeanOutDegree = float64(st.TotalCitations) / float64(c.Len())
	st.UncitedFraction = float64(uncited) / float64(c.Len())
	st.EvidenceTerms = len(c.EvidenceTerms())
	st.EvidencePapers = evidencePapers
	st.MeanTopics = float64(topicSum) / float64(c.Len())
	if a != nil {
		st.MeanTokens = float64(st.TotalTokens) / float64(c.Len())
	}
	return st
}

// InDegreeHistogram returns the citation in-degree distribution as sorted
// (degree, count) pairs — the long-tail shape that makes PageRank
// informative.
func InDegreeHistogram(c *Corpus) [][2]int {
	counts := map[int]int{}
	for _, p := range c.Papers() {
		counts[len(c.CitedBy(p.ID))]++
	}
	out := make([][2]int, 0, len(counts))
	for d, n := range counts {
		out = append(out, [2]int{d, n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
