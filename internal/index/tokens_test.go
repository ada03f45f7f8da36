package index

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"ctxsearch/internal/corpus"
)

// frozenTwin rebinds an eagerly built index over a frozen analyzer of the
// same corpus — the shape a state-booted server has.
func frozenTwin(t testing.TB, eager *corpus.Analyzer, ix *Index) *Index {
	t.Helper()
	fix, err := FromParts(corpus.NewAnalyzerFrozen(eager.Corpus(), eager.DF()), ix.Parts())
	if err != nil {
		t.Fatal(err)
	}
	return fix
}

// TestTokenTableConcurrentFill fills the lazy token table from 8 goroutines
// at once (run under -race): every goroutine must read, for every paper and
// section, exactly the build-time token stream mapped through the term
// dictionary, whichever goroutine published the slot.
func TestTokenTableConcurrentFill(t *testing.T) {
	eager, ix := partsFixture(t)
	fix := frozenTwin(t, eager, ix)
	n := eager.Corpus().Len()
	want := make([][corpus.NumSections][]int32, n)
	for doc := range want {
		f := eager.Features(corpus.PaperID(doc))
		for _, s := range corpus.Sections {
			for _, tok := range f.Tokens[s] {
				want[doc][s] = append(want[doc][s], ix.termIDs[tok])
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 2*n; k++ {
				doc := corpus.PaperID((k*7 + g*13) % n)
				d := fix.tokensOf(doc)
				for _, s := range corpus.Sections {
					if !slices.Equal(d.section(s), want[doc][s]) {
						t.Errorf("paper %d %v: token table differs from the build-time stream", doc, s)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := fix.TokenTablePapers(); got != n {
		t.Fatalf("token table holds %d papers, want %d", got, n)
	}
	if got := fix.Analyzer().AnalyzedPapers(); got != 0 {
		t.Fatalf("filling the token table analysed %d papers' features", got)
	}
	if fix.tokensOf(-1) != nil || fix.tokensOf(corpus.PaperID(n)) != nil {
		t.Fatal("out-of-range papers must have no token entry")
	}
}

// TestTokenTableSizeCeiling bounds what a serving process pays for phrase
// and field predicates: with every paper's entry filled — on a frozen
// analyzer, so the surface-form table the fill populates is charged too —
// the live heap has grown by at most 8 bytes per token (the IDs are 4).
func TestTokenTableSizeCeiling(t *testing.T) {
	eager, ix := partsFixture(t)
	fix := frozenTwin(t, eager, ix)
	n := eager.Corpus().Len()
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	tokens := 0
	for doc := 0; doc < n; doc++ {
		tokens += len(fix.tokensOf(corpus.PaperID(doc)).ids)
	}
	grown := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(fix)
	runtime.KeepAlive(eager)
	perToken := float64(grown) / float64(tokens)
	t.Logf("%d papers, %d tokens: live heap grew %d bytes, %.2f per token", n, tokens, grown, perToken)
	if perToken > 8 {
		t.Fatalf("token table costs %.2f bytes per token, ceiling 8", perToken)
	}
}
