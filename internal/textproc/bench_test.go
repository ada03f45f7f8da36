package textproc

import (
	"strings"
	"testing"
)

var benchText = strings.Repeat("the rna polymerase ii transcription factor binds to enhancer-dependent "+
	"regulatory elements during cellular differentiation and controls gene expression programs ", 40)

func BenchmarkTokenize(b *testing.B) {
	tok := NewTokenizer()
	b.ReportAllocs()
	b.SetBytes(int64(len(benchText)))
	for i := 0; i < b.N; i++ {
		_ = tok.Terms(benchText)
	}
}

func BenchmarkTokenizeStemStop(b *testing.B) {
	tok := NewTokenizer(WithStemming(), WithStopwords())
	b.ReportAllocs()
	b.SetBytes(int64(len(benchText)))
	for i := 0; i < b.N; i++ {
		_ = tok.Terms(benchText)
	}
}

func BenchmarkPorterStem(b *testing.B) {
	ps := NewPorterStemmer()
	words := []string{"transcription", "regulation", "activities", "binding", "localization", "phosphorylation"}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ps.Stem(words[i%len(words)])
	}
}
