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
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"

	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
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
	// Fingerprint identifies the ontology and corpus the state was built
	// from (see Fingerprint). A serving process compares it with the
	// fingerprint of what it loaded, so a state is never paired with
	// another corpus.
	Fingerprint [32]byte
}

// Fingerprint returns the SHA-256 digest of an ontology's OBO text and a
// corpus's gob stream, the forms their own packages write them in: every
// term's ID, name, namespace, definition and parents, and every paper field
// in paper order. Both encodings are deterministic, so equal inputs give
// equal fingerprints, and inputs that a state's arrays were not built from
// give another.
func Fingerprint(o *ontology.Ontology, c *corpus.Corpus) [32]byte {
	h := sha256.New()
	// Neither writer can fail on a hash, which never returns an error.
	_ = o.WriteOBO(h)
	_ = c.Save(h)
	return [32]byte(h.Sum(nil))
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
