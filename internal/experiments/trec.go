package experiments

import (
	"fmt"
	"io"

	"ctxsearch"
	"ctxsearch/internal/eval"
	"ctxsearch/internal/search"
)

// TRECExport writes classic TREC run files — one per score-function ×
// context-set combination the paper evaluates — plus the qrels derived from
// the AC-answer sets, so external IR tooling (trec_eval) can score this
// system. The open function receives a file name and returns its writer;
// the caller owns creation and closing.
func (s *Setup) TRECExport(open func(name string) (io.WriteCloser, error)) error {
	runs := []struct {
		name   string
		scores *ctxsearch.Matrix
	}{
		{"text_on_textset", s.TextOnTextSet},
		{"citation_on_textset", s.CitOnTextSet},
		{"pattern_on_patternset", s.PatOnPatSet},
		{"citation_on_patternset", s.CitOnPatSet},
	}
	for _, run := range runs {
		w, err := open("run_" + run.name + ".txt")
		if err != nil {
			return err
		}
		engine := s.Sys.Engine(run.scores)
		for qi, q := range s.Queries {
			qid := fmt.Sprintf("q%03d", qi+1)
			results := engine.Search(q.Text, search.Options{Limit: 100})
			if err := eval.WriteTRECRun(w, qid, results, run.name); err != nil {
				w.Close()
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	w, err := open("qrels.txt")
	if err != nil {
		return err
	}
	for qi := range s.Queries {
		qid := fmt.Sprintf("q%03d", qi+1)
		if err := eval.WriteTRECQrels(w, qid, s.answerFor(qi)); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}
