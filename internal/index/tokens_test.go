package index

import (
	"reflect"
	"runtime"
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

// TestTokenTableConcurrentFill fills a frozen analyzer's token table from 8
// goroutines at once (run under -race): every goroutine must read, for every
// paper, exactly the eager build's token stream, whichever goroutine
// published the slot — and the boolean evaluator of an index bound to it
// reads the same table.
func TestTokenTableConcurrentFill(t *testing.T) {
	eager, ix := partsFixture(t)
	fix := frozenTwin(t, eager, ix)
	frozen := fix.Analyzer()
	n := eager.Corpus().Len()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 2*n; k++ {
				doc := corpus.PaperID((k*7 + g*13) % n)
				if !reflect.DeepEqual(frozen.Tokens(doc), eager.Tokens(doc)) {
					t.Errorf("paper %d: frozen token stream differs from the eager build's", doc)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := frozen.TokenTablePapers(); got != n {
		t.Fatalf("token table holds %d papers, want %d", got, n)
	}
	if got := frozen.AnalyzedPapers(); got != 0 {
		t.Fatalf("filling the token table analysed %d papers", got)
	}
	if frozen.Tokens(-1) != nil || frozen.Tokens(corpus.PaperID(n)) != nil {
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
		tokens += len(fix.Analyzer().Tokens(corpus.PaperID(doc)).IDs)
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
