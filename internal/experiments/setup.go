// Package experiments regenerates every table and figure of the paper's
// evaluation section (Figures 5.1–5.7), the headline output-size/accuracy
// claim, and the ablations DESIGN.md calls out. Both cmd/experiments and the
// root benchmark suite drive it.
package experiments

import (
	"fmt"
	"io"

	"ctxsearch"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/eval"
)

// Scale selects the experiment size.
type Scale struct {
	// Papers and Terms size the synthetic corpus and ontology.
	Papers, Terms int
	// Queries is the evaluation query count (the paper used ~120).
	Queries int
	// Seed drives all generators.
	Seed int64
}

// DefaultScale is the full experiment scale used by cmd/experiments.
func DefaultScale() Scale { return Scale{Papers: 2000, Terms: 400, Queries: 120, Seed: 1} }

// Setup holds everything the figures need, built once: the system, both
// context paper sets, all five score-function×context-set combinations the
// paper evaluates, the evaluation queries and their AC-answer sets.
type Setup struct {
	Scale Scale
	Sys   *ctxsearch.System

	TextSet    *ctxsearch.ContextSet
	PatternSet *ctxsearch.ContextSet

	// Scores on the text-based context paper set (Figure 5.1): text and
	// citation functions.
	TextOnTextSet, CitOnTextSet *ctxsearch.Matrix
	// Scores on the pattern-based context paper set (Figures 5.2–5.7):
	// pattern, citation, and text (where representatives exist).
	PatOnPatSet, CitOnPatSet, TextOnPatSet *ctxsearch.Matrix

	Queries []eval.Query
	// ACAnswers[i] is the AC-answer set of Queries[i]; TrueAnswers[i] the
	// generator ground truth.
	ACAnswers, TrueAnswers []map[ctxsearch.PaperID]bool
}

// NewSetup builds the full experimental state. Progress lines go to log
// when non-nil (construction takes noticeable time at full scale).
func NewSetup(scale Scale, log io.Writer) (*Setup, error) {
	progress := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, format+"\n", args...)
		}
	}
	cfg := ctxsearch.DefaultConfig()
	cfg.Seed = scale.Seed
	cfg.Papers = scale.Papers
	cfg.OntologyTerms = scale.Terms

	progress("generating system: %d papers, %d terms, seed %d", scale.Papers, scale.Terms, scale.Seed)
	sys, err := ctxsearch.NewSyntheticSystem(cfg)
	if err != nil {
		return nil, err
	}
	s := &Setup{Scale: scale, Sys: sys}

	progress("building text-based context paper set")
	s.TextSet = sys.BuildTextContextSet()
	progress("building pattern-based context paper set")
	s.PatternSet = sys.BuildPatternContextSet()

	progress("scoring text-based set: text function")
	s.TextOnTextSet = sys.ScoreText(s.TextSet)
	progress("scoring text-based set: citation function")
	s.CitOnTextSet = sys.ScoreCitation(s.TextSet)

	progress("scoring pattern-based set: pattern function")
	s.PatOnPatSet = sys.ScorePattern(s.PatternSet)
	progress("scoring pattern-based set: citation function")
	s.CitOnPatSet = sys.ScoreCitation(s.PatternSet)
	// §4 scores the pattern set with the text set's representatives, which
	// contextset.Representative chooses from the evidence alone.
	progress("scoring pattern-based set: text function")
	s.TextOnPatSet = sys.ScoreText(s.PatternSet)

	progress("generating %d evaluation queries", scale.Queries)
	qcfg := eval.DefaultQueryGenConfig()
	qcfg.Seed = scale.Seed + 99
	qcfg.NumQueries = scale.Queries
	s.Queries = eval.GenerateQueries(sys.Ontology, sys.Corpus, qcfg)

	progress("building AC-answer sets")
	// The citation scorer was already built above (ScoreCitation); reuse its
	// graph instead of re-extracting the citation edges from the corpus.
	builder := eval.NewACBuilder(sys.Index(), sys.CitationScorer().Graph())
	s.ACAnswers = make([]map[ctxsearch.PaperID]bool, len(s.Queries))
	s.TrueAnswers = make([]map[ctxsearch.PaperID]bool, len(s.Queries))
	for i, q := range s.Queries {
		s.ACAnswers[i] = builder.Build(q.Text)
		s.TrueAnswers[i] = eval.TrueAnswerSet(sys.Ontology, sys.Corpus, q.Target)
	}
	progress("setup complete: %d text-set contexts, %d pattern-set contexts, %d queries",
		len(s.TextSet.Contexts()), len(s.PatternSet.Contexts()), len(s.Queries))
	return s, nil
}

// ContextSizes returns the per-context sizes of a context set (used as the
// top-k% base).
func ContextSizes(cs *ctxsearch.ContextSet) map[ctxsearch.TermID]int {
	sizes := make(map[ctxsearch.TermID]int)
	for _, ctx := range cs.Contexts() {
		sizes[ctx] = cs.Size(ctx)
	}
	return sizes
}

// answerFor returns the evaluation answer set of query i: the AC set when
// non-empty, otherwise the generator ground truth (the paper manually
// verified AC sets; our ground truth backstops degenerate ones).
func (s *Setup) answerFor(i int) map[corpus.PaperID]bool {
	if len(s.ACAnswers[i]) > 0 {
		return s.ACAnswers[i]
	}
	return s.TrueAnswers[i]
}
