package index

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ctxsearch/internal/bitset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/textproc"
	"ctxsearch/internal/vector"
)

// The reference boolean evaluator: the form SearchQueryContext had while it
// still ran on build-time features — predicates over string token streams,
// the score as a map dot product against the whole-text TF-IDF vector. It
// survives only here, as the oracle the posting/token-table evaluator must
// match bit for bit. Postings and norms come from ix; token streams and
// vectors from a refAnalysis, which reads the analyzer's DF table and
// nothing else of it, so a frozen analyzer under test stays untouched.

// refAnalysis is the string-keyed analysis of a corpus: every section's
// tokens from the tokenizer alone (no surface-form table), and every
// paper's whole-text TF-IDF vector built from them by vector.FromTerms and
// the DF table's Weight.
type refAnalysis struct {
	df     *vector.DF
	tokens [][corpus.NumSections][]string
	vecs   []vector.Sparse
}

func newRefAnalysis(a *corpus.Analyzer) *refAnalysis {
	papers := a.Corpus().Papers()
	ref := &refAnalysis{df: a.DF(), tokens: make([][corpus.NumSections][]string, len(papers)), vecs: make([]vector.Sparse, len(papers))}
	for i, p := range papers {
		tf := vector.New()
		for _, s := range corpus.Sections {
			ref.tokens[i][s] = a.Tokenizer().Terms(p.SectionText(s))
			tf.Add(vector.FromTerms(ref.tokens[i][s]))
		}
		ref.vecs[i] = a.DF().Weight(tf)
	}
	return ref
}

func refMatches(ix *Index, ref *refAnalysis, q Query, doc corpus.PaperID) bool {
	switch q := q.(type) {
	case termQuery:
		docs, _ := runOf(ix, ix.termID(q.term))
		_, ok := slices.BinarySearch(docs, doc)
		return ok
	case phraseQuery:
		for _, s := range corpus.Sections {
			if refContainsSeq(ref.tokens[doc][s], q.words) {
				return true
			}
		}
		return false
	case fieldQuery:
		return slices.Contains(ref.tokens[doc][q.section], q.term)
	case andQuery:
		for _, k := range q.kids {
			if !refMatches(ix, ref, k, doc) {
				return false
			}
		}
		return true
	case orQuery:
		for _, k := range q.kids {
			if refMatches(ix, ref, k, doc) {
				return true
			}
		}
		return false
	case notQuery:
		return !refMatches(ix, ref, q.kid, doc)
	}
	panic(fmt.Sprintf("refMatches: unknown query node %T", q))
}

func refContainsSeq(toks, words []string) bool {
	for i := 0; i+len(words) <= len(toks); i++ {
		if slices.Equal(toks[i:i+len(words)], words) {
			return true
		}
	}
	return false
}

func refMatchScore(ix *Index, ref *refAnalysis, qv vector.Sparse, doc corpus.PaperID) float64 {
	if ix.norms[doc] == 0 {
		return 0
	}
	qn := qv.Norm()
	if qn == 0 {
		return 0
	}
	return qv.Dot(ref.vecs[doc]) / (qn * ix.norms[doc])
}

func refSearchQuery(ix *Index, ref *refAnalysis, q Query, opts Options) ([]Hit, error) {
	raw := vector.New()
	q.positiveTerms(raw)
	if len(raw) == 0 {
		return nil, fmt.Errorf("no positive terms")
	}
	qv := ref.df.Weight(raw)
	seen := map[corpus.PaperID]bool{}
	var hits []Hit
	for term := range raw {
		docs, _ := runOf(ix, ix.termID(term))
		for _, doc := range docs {
			if seen[doc] || !opts.allows(doc) {
				continue
			}
			seen[doc] = true
			if !refMatches(ix, ref, q, doc) {
				continue
			}
			if score := refMatchScore(ix, ref, qv, doc); score >= opts.Threshold && score > 0 {
				hits = append(hits, Hit{doc, score})
			}
		}
	}
	sortHits(hits)
	if opts.Limit > 0 && len(hits) > opts.Limit {
		hits = hits[:opts.Limit]
	}
	return hits, nil
}

// sameHits compares two result lists exactly: documents, order, and the
// bits of every score.
func sameHits(got, want []Hit) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Doc != want[i].Doc || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("hit %d is %+v (%#x), reference %+v (%#x)", i,
				got[i], math.Float64bits(got[i].Score), want[i], math.Float64bits(want[i].Score))
		}
	}
	return nil
}

// exprGen draws boolean expressions over the words of a corpus: terms,
// phrases cut from running text (so they do occur), field-scoped terms,
// words no paper contains, stopword-only atoms, and AND / OR / NOT /
// juxtaposition / parentheses over them.
type exprGen struct {
	rng    *rand.Rand
	papers []*corpus.Paper
}

// run returns n consecutive raw words from a random section of a random
// paper (fewer when the section is shorter).
func (g *exprGen) run(n int) []string {
	for {
		p := g.papers[g.rng.Intn(len(g.papers))]
		words := textproc.AppendWords(nil, p.SectionText(corpus.Sections[g.rng.Intn(len(corpus.Sections))]))
		if len(words) == 0 {
			continue
		}
		at := g.rng.Intn(len(words))
		return words[at:min(at+n, len(words))]
	}
}

func (g *exprGen) atom(depth int) string {
	switch k := g.rng.Intn(12); {
	case k < 4:
		return g.run(1)[0]
	case k < 6:
		return `"` + strings.Join(g.run(2+g.rng.Intn(2)), " ") + `"`
	case k < 8:
		field := []string{"title", "abstract", "body", "index", "keywords", "Title"}[g.rng.Intn(6)]
		return field + ":" + g.run(1)[0]
	case k == 8:
		return []string{
			"zzyzxq", `"zzyzxq ` + g.run(1)[0] + `"`, "body:zzyzxq", // not in the dictionary
			"the", `"of the"`, "title:of", // stopwords only: dropped by the parser
		}[g.rng.Intn(6)]
	case depth > 0:
		return "(" + g.expr(depth-1) + ")"
	}
	return g.run(1)[0]
}

func (g *exprGen) expr(depth int) string {
	var b strings.Builder
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		if i > 0 {
			b.WriteString([]string{" AND ", " OR ", " ", " and "}[g.rng.Intn(4)])
		}
		if g.rng.Intn(5) == 0 {
			b.WriteString("NOT ")
		}
		b.WriteString(g.atom(depth))
	}
	return b.String()
}

// randomOptions draws Threshold, Limit and a restriction (bitset, map, or
// none) the way the search engine sets them.
func randomOptions(rng *rand.Rand, n int) Options {
	var opts Options
	if rng.Intn(2) == 0 {
		opts.Threshold = rng.Float64() * 0.3
	}
	if rng.Intn(2) == 0 {
		opts.Limit = 1 + rng.Intn(25)
	}
	switch rng.Intn(4) {
	case 0:
		set := bitset.New(n)
		for d := 0; d < n; d++ {
			if rng.Intn(3) > 0 {
				set.Add(d)
			}
		}
		opts.WithinSet = set
	case 1:
		set := bitset.New(n)
		for d := 0; d < n; d++ {
			if rng.Intn(2) == 0 {
				set.Add(d)
			}
		}
		opts.WithinSet = set
	}
	return opts
}

// booleanBattery runs generated expressions through ix and through the
// reference (postings and norms of the same ix, the string-keyed analysis
// ref) and fails on the first difference. It returns how many expressions
// it compared and how many of those had hits.
func booleanBattery(t *testing.T, label string, ix *Index, ref *refAnalysis, seed int64, exprs int) (compared, nonEmpty int) {
	t.Helper()
	g := &exprGen{rng: rand.New(rand.NewSource(seed)), papers: ix.Analyzer().Corpus().Papers()}
	for i := 0; i < exprs; i++ {
		expr := g.expr(2)
		q, err := ix.ParseQuery(expr)
		if err != nil {
			continue // all-stopword expressions: nothing to evaluate
		}
		opts := randomOptions(g.rng, len(g.papers))
		got, gotErr := ix.SearchQueryContext(context.Background(), q, opts)
		want, wantErr := refSearchQuery(ix, ref, q, opts)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s: %q: error %v, reference error %v", label, expr, gotErr, wantErr)
		}
		if gotErr != nil {
			continue // no positive terms
		}
		if err := sameHits(got, want); err != nil {
			t.Fatalf("%s: %q (%s) opts %+v: %v", label, expr, q, opts, err)
		}
		compared++
		if len(got) > 0 {
			nonEmpty++
		}
	}
	return compared, nonEmpty
}

// TestBooleanEvaluatorMatchesReference is the exactness battery of the
// boolean path: over three corpora, the evaluator on frozen data returns
// the reference's documents, order and score bits — on an eagerly built
// index, on a FromParts index over a frozen analyzer (which must come out
// of the battery without one paper analysed), and on SliceRange shards.
func TestBooleanEvaluatorMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		o, err := ontology.Generate(ontology.GenConfig{Seed: seed, NumTerms: 50, MaxDepth: 6})
		if err != nil {
			t.Fatal(err)
		}
		gc := corpus.DefaultGenConfig(150)
		gc.Seed = seed
		c, err := corpus.Generate(o, gc)
		if err != nil {
			t.Fatal(err)
		}
		eager := corpus.NewAnalyzerWorkers(c, 0)
		ix := must(BuildWorkers(eager, 0))
		ref := newRefAnalysis(eager)
		check := func(label string, ix *Index, exprs int) {
			compared, nonEmpty := booleanBattery(t, label, ix, ref, seed*31, exprs)
			t.Logf("%s: %d of %d expressions compared, %d with hits", label, compared, exprs, nonEmpty)
			if compared < exprs/2 || nonEmpty < compared/4 {
				t.Fatalf("%s: battery too thin: %d of %d expressions compared, %d with hits", label, compared, exprs, nonEmpty)
			}
		}
		check(fmt.Sprintf("seed %d eager", seed), ix, 400)

		fix := frozenTwin(t, eager, ix)
		frozen := fix.Analyzer()
		check(fmt.Sprintf("seed %d FromParts", seed), fix, 400)
		if n := frozen.AnalyzedPapers(); n != 0 {
			t.Fatalf("seed %d: boolean queries made the frozen analyzer analyse %d papers", seed, n)
		}
		if frozen.TokenTablePapers() == 0 {
			t.Fatalf("seed %d: battery never filled the token table", seed)
		}

		for _, shards := range []int{1, 2, 3} {
			for s := 0; s < shards; s++ {
				lo, hi := s*c.Len()/shards, (s+1)*c.Len()/shards
				six, err := FromParts(frozen, ix.Parts().SliceRange(lo, hi))
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("seed %d shard %d/%d", seed, s, shards)
				if compared, _ := booleanBattery(t, label, six, ref, seed*31+int64(s), 150); compared < 75 {
					t.Fatalf("%s: only %d expressions compared", label, compared)
				}
			}
		}
	}
}

// matchScore is the cosine text-matching score between a query and one
// document, read off the document's postings by the scorer the boolean
// evaluator ranks with (0 for a document the index holds no postings of).
func matchScore(ix *Index, qv vector.Sparse, doc corpus.PaperID) float64 {
	if int(doc) < 0 || int(doc) >= len(ix.norms) {
		return 0
	}
	sc := ix.newTextScorer(qv)
	return sc.score(doc)
}

// TestMatchScoreMatchesVectorForm pins the postings scorer to the vector-form
// cosine, for every paper and queries with unindexed terms.
func TestMatchScoreMatchesVectorForm(t *testing.T) {
	a, ix := partsFixture(t)
	ref := newRefAnalysis(a)
	for _, query := range []string{"regulation", "cell response zzyzxq", "protein binding activity", "zzyzxq"} {
		qv := a.QueryVector(query)
		for _, p := range a.Corpus().Papers() {
			got, want := matchScore(ix, qv, p.ID), refMatchScore(ix, ref, qv, p.ID)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%q paper %d: MatchScore %v, vector form %v", query, p.ID, got, want)
			}
		}
	}
	if matchScore(ix, a.QueryVector("regulation"), -1) != 0 || matchScore(ix, a.QueryVector("regulation"), 1<<30) != 0 {
		t.Fatal("out-of-range documents must score 0")
	}
}
