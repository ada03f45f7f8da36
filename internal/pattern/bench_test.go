package pattern

import (
	"testing"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
)

func benchFixture(b *testing.B) (*ontology.Ontology, *corpus.Corpus, *PosIndex) {
	b.Helper()
	o, err := ontology.Generate(ontology.GenConfig{Seed: 3, NumTerms: 80, MaxDepth: 7})
	if err != nil {
		b.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(300))
	if err != nil {
		b.Fatal(err)
	}
	return o, c, NewPosIndex(corpus.NewAnalyzerWorkers(c, 0))
}

func BenchmarkPosIndexBuild(b *testing.B) {
	o, _ := ontology.Generate(ontology.GenConfig{Seed: 3, NumTerms: 100, MaxDepth: 7})
	c, _ := corpus.Generate(o, corpus.DefaultGenConfig(400))
	a := corpus.NewAnalyzerWorkers(c, 0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = NewPosIndex(a)
	}
}

func BenchmarkPhraseOccurrences(b *testing.B) {
	o, c, ix := benchFixture(b)
	term := c.EvidenceTerms()[0]
	phrase := ix.nameIDs(o.Term(term).Name)
	b.ResetTimer()
	b.ReportAllocs()
	var occs []Occurrence
	for i := 0; i < b.N; i++ {
		occs = ix.PhraseOccurrences(phrase, nil, occs[:0])
	}
}

func BenchmarkMineFrequentPhrases(b *testing.B) {
	_, c, ix := benchFixture(b)
	term := c.EvidenceTerms()[0]
	docs := c.EvidencePapers(term)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = MineFrequentPhrases(ix, docs, 2)
	}
}

func BenchmarkBuildPatternSet(b *testing.B) {
	o, c, ix := benchFixture(b)
	term := c.EvidenceTerms()[0]
	df := TermWordDF(o, ix)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = build(ix, o, term, c.EvidencePapers(term), df, maxSignificant)
	}
}

func BenchmarkScorePapers(b *testing.B) {
	o, c, ix := benchFixture(b)
	term := c.EvidenceTerms()[0]
	df := TermWordDF(o, ix)
	set := build(ix, o, term, c.EvidencePapers(term), df, maxSignificant)
	dst := make([]float64, c.Len())
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		set.ScorePapers(ix, nil, false, dst)
	}
}
