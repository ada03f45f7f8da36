package ctxsearch_test

import (
	"bytes"
	"strings"
	"testing"

	"ctxsearch"
	"ctxsearch/internal/shard"
	"ctxsearch/internal/store"
)

// TestMismatchedContextSetRefused: a prestige matrix carries the context set
// it scores, so the calls that still take a set beside a matrix refuse
// another set instead of taking membership from one and prestige from the
// other. The text matrix is scored over the text-based set and offered with
// the pattern-based one: a shard group and a saved state return an error,
// and EngineFrozen panics. The matching pair is accepted by each.
func TestMismatchedContextSetRefused(t *testing.T) {
	g := getGolden(t)
	sys := g.sys
	group := func(cs *ctxsearch.ContextSet) error {
		_, err := shard.NewGroupParts(sys.Analyzer(), sys.Index().Parts(), cs, g.text, sys.Config().Relevancy, 2, shard.Options{})
		return err
	}
	save := func(cs *ctxsearch.ContextSet) error {
		return store.Save(&bytes.Buffer{}, &store.State{
			ContextSet: cs,
			Matrices:   map[string]*ctxsearch.Matrix{"text": g.text},
			Index:      sys.Index().Parts(),
			DF:         sys.Analyzer().DF(),
		})
	}
	for what, call := range map[string]func(*ctxsearch.ContextSet) error{"NewGroupParts": group, "Save": save} {
		if err := call(g.textSet); err != nil {
			t.Fatalf("%s with the set the matrix scores: %v", what, err)
		}
		if err := call(g.patSet); err == nil || !strings.Contains(err.Error(), "context set") {
			t.Fatalf("%s with another context set: err = %v, want one naming the context set", what, err)
		}
	}
	if sys.EngineFrozen(g.textSet, g.text) == nil {
		t.Fatal("EngineFrozen with the set the matrix scores returned no engine")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EngineFrozen with another context set did not panic")
		}
	}()
	sys.EngineFrozen(g.patSet, g.text)
}
