package corpus

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"ctxsearch/internal/vector"
)

// referenceFeatures analyses one paper with the tokenizer alone — no
// surface-form table — the way analyzePaper did before the table existed.
func referenceFeatures(a *Analyzer, p *Paper) *Features {
	f := &Features{
		ID:      p.ID,
		Tokens:  make(map[Section][]string, len(Sections)),
		TF:      make(map[Section]vector.Sparse, len(Sections)),
		AllTF:   vector.New(),
		Authors: make(map[string]bool, len(p.Authors)),
	}
	for _, s := range Sections {
		toks := a.tok.Terms(p.SectionText(s))
		f.Tokens[s] = toks
		tf := vector.FromTerms(toks)
		f.TF[s] = tf
		f.AllTF.Add(tf)
	}
	for _, au := range p.Authors {
		f.Authors[normAuthor(au)] = true
	}
	return f
}

// TestParallelAnalyzerMatchesSequential is the golden equivalence test for
// the sharded analyzer build: every worker count must produce exactly the
// DF table of the sequential build, and exactly the features the tokenizer
// yields without the surface-form table the workers share.
func TestParallelAnalyzerMatchesSequential(t *testing.T) {
	c, _ := testCorpus(t, 120)
	seq := NewAnalyzerWorkers(c, 1)
	for _, workers := range []int{1, 2, 3, 8} {
		par := NewAnalyzerWorkers(c, workers)
		for _, p := range c.Papers() {
			if !reflect.DeepEqual(referenceFeatures(par, p), par.Features(p.ID)) {
				t.Fatalf("workers=%d: features of paper %d differ from the table-free analysis", workers, p.ID)
			}
		}
		if !reflect.DeepEqual(seq.df, par.df) {
			t.Fatalf("workers=%d: DF table differs from sequential build", workers)
		}
	}
}

// TestFrozenFeaturesConcurrentWithWarm hammers the lock-free readers of a
// lazy analyzer while Warm fills every slot: each reader must see either
// nothing yet (and then analyse under the lock) or the finished features,
// never a torn one. Run under -race.
func TestFrozenFeaturesConcurrentWithWarm(t *testing.T) {
	c, _ := testCorpus(t, 80)
	eager := NewAnalyzerWorkers(c, 1)
	eager.Warm(1)
	lazy := NewAnalyzerFrozen(c, eager.DF())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*c.Len(); k++ {
				id := PaperID((k*7 + g*11) % c.Len())
				if !reflect.DeepEqual(lazy.Features(id), eager.Features(id)) {
					t.Errorf("paper %d: lazy features differ from eager", id)
					return
				}
				if !reflect.DeepEqual(lazy.TFIDFAll(id), eager.TFIDFAll(id)) {
					t.Errorf("paper %d: lazy TFIDFAll differs from eager", id)
					return
				}
			}
		}(g)
	}
	lazy.Warm(4)
	wg.Wait()
	if lazy.SurfaceForms() != eager.SurfaceForms() {
		t.Fatalf("lazy analyzer recorded %d surface forms, eager %d", lazy.SurfaceForms(), eager.SurfaceForms())
	}
}

// TestWarmMatchesLazy verifies that the eager parallel cache warm produces
// bit-identical TF-IDF vectors and norms to lazy on-demand computation.
func TestWarmMatchesLazy(t *testing.T) {
	c, _ := testCorpus(t, 60)
	lazy := NewAnalyzerWorkers(c, 1)
	warm := NewAnalyzerWorkers(c, 1)
	warm.Warm(4)
	if !warm.warmed.Load() {
		t.Fatal("Warm did not set the warmed flag")
	}
	for _, p := range c.Papers() {
		for _, s := range Sections {
			if !reflect.DeepEqual(lazy.TFIDF(p.ID, s), warm.TFIDF(p.ID, s)) {
				t.Fatalf("paper %d section %v: warmed TFIDF differs from lazy", p.ID, s)
			}
			if lazy.TFIDFNorm(p.ID, s) != warm.TFIDFNorm(p.ID, s) {
				t.Fatalf("paper %d section %v: warmed norm differs from lazy", p.ID, s)
			}
		}
		if !reflect.DeepEqual(lazy.TFIDFAll(p.ID), warm.TFIDFAll(p.ID)) {
			t.Fatalf("paper %d: warmed TFIDFAll differs from lazy", p.ID)
		}
		if lazy.TFIDFAllNorm(p.ID) != warm.TFIDFAllNorm(p.ID) {
			t.Fatalf("paper %d: warmed TFIDFAllNorm differs from lazy", p.ID)
		}
	}
}

// TestWarmIsIdempotent guards the double-checked fast path.
func TestWarmIsIdempotent(t *testing.T) {
	c, _ := testCorpus(t, 20)
	a := NewAnalyzerWorkers(c, 0)
	a.Warm(2)
	first := a.TFIDFAll(0)
	a.Warm(2)
	if !reflect.DeepEqual(first, a.TFIDFAll(0)) {
		t.Fatal("second Warm changed cached vectors")
	}
}

// TestFrozenWeightsConcurrentWithWarm reads all four weight accessors of a
// lazy analyzer from 8 goroutines while Warm fills every slot: a reader
// sees a finished slot without a lock or fills a missing one under it,
// never a torn value. Run under -race.
func TestFrozenWeightsConcurrentWithWarm(t *testing.T) {
	c, _ := testCorpus(t, 80)
	eager := NewAnalyzerWorkers(c, 1)
	eager.Warm(1)
	lazy := NewAnalyzerFrozen(c, eager.DF())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*c.Len(); k++ {
				id := PaperID((k*7 + g*11) % c.Len())
				s := Sections[(k+g)%len(Sections)]
				if !reflect.DeepEqual(lazy.TFIDF(id, s), eager.TFIDF(id, s)) || lazy.TFIDFNorm(id, s) != eager.TFIDFNorm(id, s) {
					t.Errorf("paper %d %v: lazy section weights differ from eager", id, s)
					return
				}
				if !reflect.DeepEqual(lazy.TFIDFAll(id), eager.TFIDFAll(id)) || lazy.TFIDFAllNorm(id) != eager.TFIDFAllNorm(id) {
					t.Errorf("paper %d: lazy whole-text weights differ from eager", id)
					return
				}
			}
		}(g)
	}
	lazy.Warm(4)
	wg.Wait()
	if got, want := lazy.CachedWeights(), 2*c.Len(); got != want {
		t.Fatalf("%d weight slots filled after Warm, want %d", got, want)
	}
}

// TestSectionTokensLeaveAnalyzerFrozen: the shared section tokenizer yields
// exactly the build-time token streams and materialises nothing on the
// analyzer — no Features, no weight vector — while any TF-IDF accessor
// does analyse its paper, so "zero analysed papers" implies "zero cached
// vectors".
func TestSectionTokensLeaveAnalyzerFrozen(t *testing.T) {
	c, _ := testCorpus(t, 40)
	eager := NewAnalyzerWorkers(c, 1)
	lazy := NewAnalyzerFrozen(c, eager.DF())
	for _, p := range c.Papers() {
		want := eager.Features(p.ID).Tokens
		lazy.SectionTokens(p, func(s Section, toks []string) {
			if !slices.Equal(toks, want[s]) {
				t.Fatalf("paper %d %v: section tokens differ from Features.Tokens", p.ID, s)
			}
		})
	}
	if lazy.AnalyzedPapers() != 0 || lazy.CachedWeights() != 0 {
		t.Fatalf("tokenizing analysed %d papers and cached %d weight slots", lazy.AnalyzedPapers(), lazy.CachedWeights())
	}
	if eager.AnalyzedPapers() != c.Len() {
		t.Fatalf("eager analyzer reports %d analysed papers of %d", eager.AnalyzedPapers(), c.Len())
	}
	lazy.TFIDFAll(3)
	lazy.TFIDFNorm(5, SecTitle)
	if lazy.AnalyzedPapers() != 2 || lazy.CachedWeights() != 2 {
		t.Fatalf("two accessor calls analysed %d papers and cached %d weight slots, want 2 and 2", lazy.AnalyzedPapers(), lazy.CachedWeights())
	}
}

// TestSectionTokensScratchIsNotRetained pins what pooling the tokenizer
// scratch must not change: what fn copied out survives the papers tokenized
// after it and the callers tokenizing beside it, and a scratch at rest in
// the pool references no paper's text.
func TestSectionTokensScratchIsNotRetained(t *testing.T) {
	c, _ := testCorpus(t, 60)
	a := NewAnalyzerFrozen(c, vector.NewDF())
	papers := c.Papers()
	got := make([][NumSections][]string, len(papers))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(papers); i += 4 {
				a.SectionTokens(papers[i], func(s Section, toks []string) {
					got[i][s] = slices.Clone(toks)
				})
			}
		}(w)
	}
	wg.Wait()
	for i, p := range papers {
		for _, s := range Sections {
			if want := a.tok.Terms(p.SectionText(s)); !slices.Equal(got[i][s], want) {
				t.Fatalf("paper %d %v: copied tokens differ from the tokenizer's after later and concurrent calls", p.ID, s)
			}
		}
	}
	// The pool may hand back fewer scratches than were put (it sheds some
	// under -race and at a GC), so tokenize until one is seen.
	inspected := 0
	for try := 0; try < 100 && inspected == 0; try++ {
		a.SectionTokens(papers[try%len(papers)], func(Section, []string) {})
		for {
			sc, _ := a.scratch.Get().(*tokenScratch)
			if sc == nil {
				break
			}
			inspected++
			if cap(sc.words) == 0 {
				t.Fatal("pooled scratch never held a word")
			}
			for i, w := range sc.words[:cap(sc.words)] {
				if w != "" {
					t.Fatalf("pooled scratch still holds word %d (%q) of a paper's text", i, w)
				}
			}
		}
	}
	if inspected == 0 {
		t.Fatal("no scratch came back from the pool in 100 calls")
	}
}
