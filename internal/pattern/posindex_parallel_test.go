package pattern

import (
	"reflect"
	"testing"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
)

// TestParallelPosIndexMatchesSequential is the golden equivalence test for
// the sharded positional-index build: position maps, section bounds and
// token streams must be identical at every worker count.
func TestParallelPosIndexMatchesSequential(t *testing.T) {
	o, err := ontology.Generate(ontology.GenConfig{Seed: 3, NumTerms: 60, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(120))
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	seq := NewPosIndexWorkers(a, 1)
	for _, workers := range []int{2, 3, 8} {
		par := NewPosIndexWorkers(a, workers)
		if !reflect.DeepEqual(seq.positions, par.positions) {
			t.Fatalf("workers=%d: position maps differ", workers)
		}
		if !reflect.DeepEqual(seq.bounds, par.bounds) {
			t.Fatalf("workers=%d: section bounds differ", workers)
		}
		if !reflect.DeepEqual(seq.tokens, par.tokens) {
			t.Fatalf("workers=%d: token streams differ", workers)
		}
	}
}

// TestPhraseOccurrencesScratchReuse runs the same phrase query repeatedly
// (and once concurrently) to exercise the pooled scratch path — results
// must be identical across leases.
func TestPhraseOccurrencesScratchReuse(t *testing.T) {
	a, ix := tinyCorpus(t)
	phrase := a.Tokenizer().Terms("rna polymerase")
	first := ix.PhraseOccurrences(phrase, nil)
	for i := 0; i < 10; i++ {
		if got := ix.PhraseOccurrences(phrase, nil); !reflect.DeepEqual(first, got) {
			t.Fatalf("iteration %d: pooled scratch changed results", i)
		}
	}
	done := make(chan map[corpus.PaperID][]Occurrence, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- ix.PhraseOccurrences(phrase, nil) }()
	}
	for i := 0; i < 8; i++ {
		if got := <-done; !reflect.DeepEqual(first, got) {
			t.Fatal("concurrent phrase query changed results")
		}
	}
}
