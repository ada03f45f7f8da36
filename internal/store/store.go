// Package store persists the query-independent pre-processing artefacts of
// the context-based search system — context paper sets, prestige scores,
// and the text index they were computed over — so a deployment can run
// tasks 1–2 offline once and serve queries from the saved state. The corpus
// and ontology persist through their own packages (corpus gob store,
// ontology OBO writer); this package covers the derived state.
//
// There is one state format: the flat sectioned container described in
// format.go, written by Save and opened (memory-mapped where the platform
// allows) by Open.
package store

import (
	"fmt"
	"os"
	"path/filepath"

	"ctxsearch/internal/contextset"
	"ctxsearch/internal/index"
	"ctxsearch/internal/prestige"
	"ctxsearch/internal/vector"
)

// State is what a state file holds: one context paper set, the prestige
// scores of any number of score functions computed over it, and the text
// index a serving process binds instead of re-analysing the corpus.
type State struct {
	ContextSet *contextset.ContextSet
	// Matrices maps score-function name ("text", "citation", "pattern", …)
	// to its score matrix over ContextSet — the form scoring returns, the
	// file persists and the cold-start path hands straight to
	// search.NewEngine. Save refuses a matrix scored over another set.
	Matrices map[string]*prestige.Matrix
	// Index and DF are the text-index postings and the document-frequency
	// table. Both are required: a state file without them could only be
	// served by analysing the whole corpus again at every boot.
	Index *index.Parts
	DF    *vector.DF
}

// SaveFile writes the state to path crash-safely: the stream goes to a temp
// file in the same directory, is synced, and is renamed into place, so a
// crash mid-save leaves either the old state or none — never a truncated
// file that Open rejects on the next boot.
func SaveFile(path string, st *State) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()           // no-op if already closed
			os.Remove(tmp.Name()) // no-op if already renamed
		}
	}()
	if err = Save(tmp, st); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: installing %s: %w", path, err)
	}
	return nil
}
