package corpus

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"ctxsearch/internal/ontology"
	"ctxsearch/internal/vector"
)

// referenceAnalysis is the analysis the flat analyzer is held to, in the
// string-keyed form it replaced: every section tokenized by the tokenizer
// alone (no surface-form table), term frequencies by vector.FromTerms, the
// whole paper their sum, and document frequencies counted per distinct term
// of the whole paper.
type referenceAnalysis struct {
	tokens [][NumSections][]string
	tf     [][rowsPerPaper]vector.Sparse
	df     map[string]int32
}

func newReferenceAnalysis(a *Analyzer) *referenceAnalysis {
	papers := a.corpus.Papers()
	ref := &referenceAnalysis{
		tokens: make([][NumSections][]string, len(papers)),
		tf:     make([][rowsPerPaper]vector.Sparse, len(papers)),
		df:     make(map[string]int32),
	}
	for i, p := range papers {
		all := vector.New()
		for _, s := range Sections {
			ref.tokens[i][s] = a.tok.Terms(p.SectionText(s))
			ref.tf[i][s] = vector.FromTerms(ref.tokens[i][s])
			all.Add(ref.tf[i][s])
		}
		ref.tf[i][NumSections] = all
		for term := range all {
			ref.df[term]++
		}
	}
	return ref
}

// check compares the analyzer with the reference: the dictionary and its
// document frequencies, every section's ID stream read through the
// dictionary, and every row and norm against vector.DF.Weight and
// Sparse.Norm by their bits.
func (ref *referenceAnalysis) check(a *Analyzer) error {
	terms := make([]string, 0, len(ref.df))
	for term := range ref.df {
		terms = append(terms, term)
	}
	sort.Strings(terms)
	docs, df := a.DF().Counts()
	if docs != len(ref.tokens) || !slices.Equal(a.DF().Terms(), terms) {
		return fmt.Errorf("dictionary of %d terms over %d papers is not the reference's sorted vocabulary of %d over %d", len(a.DF().Terms()), docs, len(terms), len(ref.tokens))
	}
	for id, term := range terms {
		if df[id] != ref.df[term] {
			return fmt.Errorf("term %q: document frequency %d, reference %d", term, df[id], ref.df[term])
		}
	}
	for i := range ref.tokens {
		id := PaperID(i)
		toks := a.Tokens(id)
		for _, s := range Sections {
			got := make([]string, 0, len(toks.Section(s)))
			for _, t := range toks.Section(s) {
				got = append(got, a.Term(t))
			}
			if !slices.Equal(got, ref.tokens[i][s]) {
				return fmt.Errorf("paper %d %v: tokens %q, reference %q", i, s, got, ref.tokens[i][s])
			}
		}
		for s := range rowsPerPaper {
			want := a.DF().Weight(ref.tf[i][s])
			got := a.Row(id, Section(s))
			if len(got.Terms) != len(want) || len(got.Weights) != len(want) {
				return fmt.Errorf("paper %d row %d: %d terms, reference %d", i, s, len(got.Terms), len(want))
			}
			for k, t := range got.Terms {
				if k > 0 && got.Terms[k-1] >= t {
					return fmt.Errorf("paper %d row %d: term IDs not ascending at %d", i, s, k)
				}
				if w, ok := want[a.Term(t)]; !ok || math.Float64bits(got.Weights[k]) != math.Float64bits(w) {
					return fmt.Errorf("paper %d row %d term %q: weight %v, reference %v", i, s, a.Term(t), got.Weights[k], w)
				}
			}
			if math.Float64bits(got.Norm) != math.Float64bits(want.Norm()) {
				return fmt.Errorf("paper %d row %d: norm %v, reference %v", i, s, got.Norm, want.Norm())
			}
		}
	}
	return nil
}

// sameAnalysis reports where two analyzers of one corpus differ: the
// dictionary, the token streams, or the row arrays.
func sameAnalysis(x, y *Analyzer) error {
	if !reflect.DeepEqual(x.df, y.df) {
		return fmt.Errorf("dictionaries differ")
	}
	for i := range x.tokens {
		if !reflect.DeepEqual(x.Tokens(PaperID(i)), y.Tokens(PaperID(i))) {
			return fmt.Errorf("token streams of paper %d differ", i)
		}
	}
	if !slices.Equal(x.rowEnd, y.rowEnd) || !slices.Equal(x.terms, y.terms) ||
		!slices.Equal(x.weights, y.weights) || !slices.Equal(x.norms, y.norms) {
		return fmt.Errorf("row arrays differ")
	}
	return nil
}

// TestAnalyzerMatchesReference holds the flat analyzer, at the serving
// benchmark's scale (800 papers, 160 terms) and at 1, 2 and 8 workers, to
// the string-keyed reference, and the arrays to each other across worker
// counts.
func TestAnalyzerMatchesReference(t *testing.T) {
	ocfg := ontology.DefaultGenConfig()
	ocfg.NumTerms = 160
	o, err := ontology.Generate(ocfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Generate(o, DefaultGenConfig(800))
	if err != nil {
		t.Fatal(err)
	}
	var ref *referenceAnalysis
	var first *Analyzer
	for _, workers := range []int{1, 2, 8} {
		a := NewAnalyzerWorkers(c, workers)
		if ref == nil {
			ref, first = newReferenceAnalysis(a), a
		}
		if err := ref.check(a); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := sameAnalysis(first, a); err != nil {
			t.Fatalf("workers=%d against workers=1: %v", workers, err)
		}
	}
}

// TestParallelAnalyzerMatchesSequential is the golden equivalence test for
// the sharded analyzer build: every worker count, odd shard splits included,
// must produce exactly the sequential build's dictionary, token streams and
// rows. Each worker tokenizes through its own form table, so the hand-built
// corpus splits 3/2/2 at three workers, and its last shard holds forms no
// earlier shard saw ("zymogens") and new spellings ("Regulated", "BINDING")
// of terms the first shard met first, in another first-seen order.
func TestParallelAnalyzerMatchesSequential(t *testing.T) {
	generated, _ := testCorpus(t, 120)
	small, err := NewCorpus([]*Paper{
		{ID: 0, Title: "Regulation of binding", Abstract: "Kinases regulate binding.", Body: "Binding assays."},
		{ID: 1, Title: "Binding kinetics", Abstract: "The kinetics of regulation.", Body: "Assays of kinases."},
		{ID: 2, Title: "Kinase assays", Abstract: "Regulation and kinetics.", Body: "Binding, binding and binding."},
		{ID: 3, Title: "Assays", Abstract: "Kinetics first.", Body: "Then regulation."},
		{ID: 4, Title: "Kinetics", Abstract: "Assays.", Body: "Kinases."},
		{ID: 5, Title: "Zymogens", Abstract: "BINDING of zymogens is Regulated.", Body: "Zymogen activation."},
		{ID: 6, Title: "Activation of zymogens", Abstract: "Regulated BINDING.", Body: "Kinases activate zymogens."},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Corpus{generated, small} {
		seq := NewAnalyzerWorkers(c, 1)
		if err := newReferenceAnalysis(seq).check(seq); err != nil {
			t.Fatalf("%d papers, workers=1: %v", c.Len(), err)
		}
		for _, workers := range []int{2, 3, 8} {
			if err := sameAnalysis(seq, NewAnalyzerWorkers(c, workers)); err != nil {
				t.Fatalf("%d papers, workers=%d: %v", c.Len(), workers, err)
			}
		}
	}
}

// TestSectionTokensLeaveAnalyzerFrozen: a frozen analyzer tokenizes a paper
// into exactly the eager build's stream and counts that as no analysis,
// while every TF-IDF row it is asked for is computed — bit-identical to the
// eager row — and counted, so "zero analysed papers" means no row was
// computed.
func TestSectionTokensLeaveAnalyzerFrozen(t *testing.T) {
	c, _ := testCorpus(t, 40)
	eager := NewAnalyzerWorkers(c, 1)
	lazy := NewAnalyzerFrozen(c, eager.DF())
	if lazy.TokenTablePapers() != 0 {
		t.Fatalf("a new frozen analyzer holds %d token streams", lazy.TokenTablePapers())
	}
	for _, p := range c.Papers() {
		if !reflect.DeepEqual(lazy.Tokens(p.ID), eager.Tokens(p.ID)) {
			t.Fatalf("paper %d: frozen token stream differs from the eager build's", p.ID)
		}
	}
	if lazy.AnalyzedPapers() != 0 || lazy.TokenTablePapers() != c.Len() {
		t.Fatalf("tokenizing analysed %d papers and kept %d streams, want 0 and %d", lazy.AnalyzedPapers(), lazy.TokenTablePapers(), c.Len())
	}
	if eager.AnalyzedPapers() != c.Len() || eager.TokenTablePapers() != c.Len() {
		t.Fatalf("eager analyzer reports %d analysed papers and %d streams of %d", eager.AnalyzedPapers(), eager.TokenTablePapers(), c.Len())
	}
	if got, want := lazy.Row(3, WholeText), eager.Row(3, WholeText); !reflect.DeepEqual(got, want) {
		t.Fatalf("frozen whole-paper row %v, eager %v", got, want)
	}
	if got, want := lazy.Row(5, SecTitle), eager.Row(5, SecTitle); !reflect.DeepEqual(got, want) {
		t.Fatalf("frozen title row %v, eager %v", got, want)
	}
	if lazy.AnalyzedPapers() != 2 {
		t.Fatalf("two row calls analysed %d papers, want 2", lazy.AnalyzedPapers())
	}
	if r := lazy.Row(-1, WholeText); r.Terms != nil || r.Norm != 0 || lazy.Tokens(PaperID(c.Len())) != nil {
		t.Fatal("out-of-range papers must have empty rows and no tokens")
	}
}

// TestSectionTokensScratchIsNotRetained pins what pooling the tokenizer and
// row scratch must not change: the streams concurrent callers tokenize are
// the tokenizer's, the rows they compute are the eager build's, and a
// scratch at rest in the pool references no paper's text.
func TestSectionTokensScratchIsNotRetained(t *testing.T) {
	c, _ := testCorpus(t, 60)
	eager := NewAnalyzerWorkers(c, 1)
	a := NewAnalyzerFrozen(c, eager.DF())
	papers := c.Papers()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(papers); i += 2 {
				id := papers[i].ID
				a.Tokens(id)
				if got, want := a.Row(id, WholeText), eager.Row(id, WholeText); !reflect.DeepEqual(got, want) {
					t.Errorf("paper %d: concurrently computed row differs from the eager build's", id)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, p := range papers {
		toks := a.Tokens(p.ID)
		for _, s := range Sections {
			var got []string
			for _, id := range toks.Section(s) {
				got = append(got, a.Term(id))
			}
			if want := a.tok.Terms(p.SectionText(s)); !slices.Equal(got, want) {
				t.Fatalf("paper %d %v: tokens %q after concurrent calls, tokenizer %q", p.ID, s, got, want)
			}
		}
	}
	// The pool may hand back fewer scratches than were put (it sheds some
	// under -race and at a GC), so tokenize until one that held words is
	// seen. A scratch only Row ever leased (the pool was empty when it asked)
	// never held a word, and passes trivially.
	held := 0
	for try := 0; try < 100 && held == 0; try++ {
		sc := a.lease(0)
		a.appendTokens(sc, &a.forms, nil, papers[try%len(papers)], new([NumSections]int32))
		a.scratch.Put(sc)
		for {
			sc, _ := a.scratch.Get().(*scratch)
			if sc == nil {
				break
			}
			if cap(sc.words) > 0 {
				held++
			}
			for i, w := range sc.words[:cap(sc.words)] {
				if w != "" {
					t.Fatalf("pooled scratch still holds word %d (%q) of a paper's text", i, w)
				}
			}
		}
	}
	if held == 0 {
		t.Fatal("no scratch that held words came back from the pool in 100 calls")
	}
}
