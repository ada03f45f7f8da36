package index

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"ctxsearch/internal/bitset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/vector"
)

// Query is a parsed boolean query tree. Evaluate with Index.SearchQuery on
// the index that parsed it: leaves are bound to that index's postings and
// term dictionary at parse time.
//
// The grammar (case-insensitive keywords):
//
//	query  = or
//	or     = and { "OR" and }
//	and    = unary { ["AND"] unary }     (adjacency is implicit AND)
//	unary  = "NOT" unary | atom
//	atom   = WORD | QUOTED_PHRASE | "(" query ")"
//
// Matching documents are ranked by the cosine similarity of the query's
// positive terms, so boolean structure filters and TF-IDF ranks — the
// behaviour of classic digital-library search engines.
type Query interface {
	// matches reports whether doc satisfies the boolean constraint.
	matches(ix *Index, doc corpus.PaperID) bool
	// positiveTerms accumulates the stemmed terms used for ranking.
	positiveTerms(into vector.Sparse)
	// String renders the canonical query form.
	String() string
}

// termQuery matches documents containing the (stemmed) term: the members
// of papers, its postings run, bound at parse time (empty, matching nothing,
// when the term is not indexed).
type termQuery struct {
	term   string
	papers bitset.Set
}

func (q termQuery) matches(_ *Index, doc corpus.PaperID) bool {
	return q.papers.Contains(int(doc))
}

func (q termQuery) positiveTerms(into vector.Sparse) { into[q.term]++ }
func (q termQuery) String() string                   { return q.term }

// phraseQuery matches documents containing the stemmed words contiguously
// in one section of the analyzer's token stream. ids holds the words as
// term IDs; it is nil when some word is not in the dictionary, and the
// phrase then matches nothing.
type phraseQuery struct {
	words []string
	ids   []int32
}

func (q phraseQuery) matches(ix *Index, doc corpus.PaperID) bool {
	if q.ids == nil {
		return false
	}
	d := ix.analyzer.Tokens(doc)
	if d == nil {
		return false
	}
	for _, s := range corpus.Sections {
		if containsSeq(d.Section(s), q.ids) {
			return true
		}
	}
	return false
}

func containsSeq(toks, words []int32) bool {
	if len(words) == 0 || len(toks) < len(words) {
		return false
	}
outer:
	for i := 0; i+len(words) <= len(toks); i++ {
		for j, w := range words {
			if toks[i+j] != w {
				continue outer
			}
		}
		return true
	}
	return false
}

func (q phraseQuery) positiveTerms(into vector.Sparse) {
	for _, w := range q.words {
		into[w]++
	}
}

func (q phraseQuery) String() string { return `"` + strings.Join(q.words, " ") + `"` }

// fieldQuery matches documents containing the term within one section,
// e.g. title:polymerase. id is the term's ID, corpus.NoTerm (matching
// nothing) when the dictionary does not hold it.
type fieldQuery struct {
	section corpus.Section
	term    string
	id      int32
}

func (q fieldQuery) matches(ix *Index, doc corpus.PaperID) bool {
	if q.id == corpus.NoTerm {
		return false
	}
	d := ix.analyzer.Tokens(doc)
	return d != nil && slices.Contains(d.Section(q.section), q.id)
}

func (q fieldQuery) positiveTerms(into vector.Sparse) { into[q.term]++ }
func (q fieldQuery) String() string {
	return q.section.String() + ":" + q.term
}

// parseField maps a field prefix to a section.
func parseField(name string) (corpus.Section, bool) {
	switch strings.ToLower(name) {
	case "title":
		return corpus.SecTitle, true
	case "abstract":
		return corpus.SecAbstract, true
	case "body":
		return corpus.SecBody, true
	case "index", "index_terms", "keywords":
		return corpus.SecIndexTerms, true
	default:
		return 0, false
	}
}

// andQuery matches when all children match.
type andQuery struct{ kids []Query }

func (q andQuery) matches(ix *Index, doc corpus.PaperID) bool {
	for _, k := range q.kids {
		if !k.matches(ix, doc) {
			return false
		}
	}
	return true
}

func (q andQuery) positiveTerms(into vector.Sparse) {
	for _, k := range q.kids {
		k.positiveTerms(into)
	}
}

func (q andQuery) String() string { return joinQueries(q.kids, " AND ") }

// orQuery matches when any child matches.
type orQuery struct{ kids []Query }

func (q orQuery) matches(ix *Index, doc corpus.PaperID) bool {
	for _, k := range q.kids {
		if k.matches(ix, doc) {
			return true
		}
	}
	return false
}

func (q orQuery) positiveTerms(into vector.Sparse) {
	for _, k := range q.kids {
		k.positiveTerms(into)
	}
}

func (q orQuery) String() string { return joinQueries(q.kids, " OR ") }

// notQuery inverts its child and contributes no ranking terms.
type notQuery struct{ kid Query }

func (q notQuery) matches(ix *Index, doc corpus.PaperID) bool {
	return !q.kid.matches(ix, doc)
}

func (q notQuery) positiveTerms(vector.Sparse) {}
func (q notQuery) String() string              { return "NOT (" + q.kid.String() + ")" }

func joinQueries(kids []Query, sep string) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = k.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// errStopTerm marks an atom that normalised away entirely (pure
// stopwords); enclosing conjunctions skip such atoms the way production
// search engines drop stopwords, instead of failing the whole query.
var errStopTerm = fmt.Errorf("index: term is all stopwords")

// ParseQuery parses the boolean query language. Terms are normalised with
// the index's tokenizer (stemming, stopword removal), so "binding" and
// "binds" match the same postings. Terms that normalise away entirely
// (pure stopwords, e.g. the "of" in "regulation of transcription") are
// skipped; a query with nothing left is an error.
func (ix *Index) ParseQuery(s string) (Query, error) {
	q, _, err := ix.ParseQueryTerms(s)
	return q, err
}

// ParseQueryTerms is ParseQuery that also returns the query's terms,
// Tokenizer.Terms(s), recorded from the one tokenization of its lexemes:
// every lexeme boundary (blank, parenthesis, quote) is a split point of
// textproc.AppendWords, so the lexemes' terms in lexeme order are the
// whole expression's, keywords and field names included. On an error the
// terms are nil.
func (ix *Index) ParseQueryTerms(s string) (Query, []string, error) {
	toks, err := lexQuery(s)
	if err != nil {
		return nil, nil, err
	}
	// A colon splits words too, so a lexeme's terms are those of its text
	// before the first colon, then those after it.
	var terms []string
	tk := ix.analyzer.Tokenizer()
	for k := range toks {
		t := &toks[k]
		name, rest, _ := strings.Cut(t.text, ":")
		t.lo = len(terms)
		terms = tk.AppendTerms(terms, name)
		t.mid = len(terms)
		terms = tk.AppendTerms(terms, rest)
		t.hi = len(terms)
	}
	p := &queryParser{ix: ix, toks: toks, terms: terms}
	q, err := p.parseOr()
	if err == errStopTerm {
		return nil, nil, fmt.Errorf("index: query contains only stopwords")
	}
	if err != nil {
		return nil, nil, err
	}
	if p.pos != len(p.toks) {
		return nil, nil, fmt.Errorf("index: unexpected %q at end of query", p.toks[p.pos].text)
	}
	return q, terms, nil
}

// SearchQuery evaluates a parsed query: candidate documents come from the
// positive terms' postings (a NOT-only query is rejected), the boolean tree
// filters them, and cosine similarity of the positive terms ranks them.
func (ix *Index) SearchQuery(q Query, opts Options) ([]Hit, error) {
	return ix.SearchQueryContext(context.Background(), q, opts)
}

// SearchQueryContext is SearchQuery with cooperative cancellation: the
// candidate walk checks ctx between terms and the boolean-matching pass —
// the expensive part for phrase and field queries — checks every few
// hundred candidates. A completed call returns exactly the hits
// SearchQuery would; a cancelled call returns (nil, ctx.Err()).
//
// The whole evaluation runs on the frozen index data: candidates and scores
// come from the posting segments (see AppendQueryHits), phrase and field
// predicates from the analyzer's token streams (a frozen analyzer tokenizes
// a paper on its first such check). No TF-IDF row is touched.
func (ix *Index) SearchQueryContext(ctx context.Context, q Query, opts Options) ([]Hit, error) {
	hits, err := ix.AppendQueryHits(ctx, q, opts, nil)
	if err != nil {
		return nil, err
	}
	sortHits(hits)
	if opts.Limit > 0 && len(hits) > opts.Limit {
		hits = hits[:opts.Limit]
	}
	return hits, nil
}

// AppendQueryHits is the boolean counterpart of AppendVectorHits: every hit
// an unlimited SearchQueryContext would return is appended to dst, in
// unspecified order. On an error dst is returned unextended.
//
// It is an ordered scatter, the text context set's: the positive terms'
// segments are walked ascending by product (SegOrder), adding each
// segment's product into the pooled dense accumulator, so every candidate
// holds the sum vector.SumSorted forms over its products — the Sparse.Dot
// of the query and document vectors, bit for bit. The boolean tree then
// filters the candidates, and the survivors are divided by ‖q‖·‖d‖.
func (ix *Index) AppendQueryHits(ctx context.Context, q Query, opts Options, dst []Hit) ([]Hit, error) {
	raw := vector.New()
	q.positiveTerms(raw)
	if len(raw) == 0 {
		return dst, fmt.Errorf("index: query has no positive terms to rank by")
	}
	qv := ix.analyzer.DF().Weight(raw)
	qn := qv.Norm()
	if qn == 0 {
		return dst, ctx.Err()
	}
	acc := ix.getAccum()
	defer ix.putAccum(acc)
	for _, qt := range ix.resolveQuery(qv) {
		acc.order.Add(ix, qt.id, qt.w)
	}
	restricted := opts.restricted()
	for i, e := range acc.order.Sort() {
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return dst, err
			}
		}
		docs, _ := ix.Segment(e.Seg)
		for _, doc := range docs {
			if restricted && !opts.allows(doc) {
				continue
			}
			if !acc.seen[doc] {
				acc.seen[doc] = true
				acc.touched = append(acc.touched, doc)
			}
			acc.val[doc] += e.Prod
		}
	}
	hits := dst
	for i, doc := range acc.touched {
		// Boolean matching walks token streams per candidate (phrase scans
		// especially), so check cancellation on a tighter stride than the
		// vector path.
		if i&511 == 0 {
			if err := ctx.Err(); err != nil {
				return dst, err
			}
		}
		dn := ix.norms[doc]
		if dn == 0 || !q.matches(ix, doc) {
			continue
		}
		score := acc.val[doc] / (qn * dn)
		if score >= opts.Threshold && score > 0 {
			hits = append(hits, Hit{doc, score})
		}
	}
	return hits, nil
}

// queryToken is one lexeme. Its terms are terms[lo:hi] of the query's
// recorded terms: those of the text before its first colon, if any, are
// terms[lo:mid], and those after it terms[mid:hi].
type queryToken struct {
	kind        string // "word", "phrase", "and", "or", "not", "(", ")"
	text        string
	lo, mid, hi int
}

func lexQuery(s string) ([]queryToken, error) {
	var toks []queryToken
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case c == '(':
			toks = append(toks, queryToken{kind: "(", text: "("})
			i++
		case c == ')':
			toks = append(toks, queryToken{kind: ")", text: ")"})
			i++
		case c == '"':
			j := strings.IndexByte(s[i+1:], '"')
			if j < 0 {
				return nil, fmt.Errorf("index: unterminated quote in query")
			}
			toks = append(toks, queryToken{kind: "phrase", text: s[i+1 : i+1+j]})
			i += j + 2
		default:
			j := i
			for j < len(s) && !strings.ContainsRune(" \t\n()\"", rune(s[j])) {
				j++
			}
			word := s[i:j]
			switch strings.ToUpper(word) {
			case "AND":
				toks = append(toks, queryToken{kind: "and", text: word})
			case "OR":
				toks = append(toks, queryToken{kind: "or", text: word})
			case "NOT":
				toks = append(toks, queryToken{kind: "not", text: word})
			default:
				toks = append(toks, queryToken{kind: "word", text: word})
			}
			i = j
		}
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("index: empty query")
	}
	return toks, nil
}

type queryParser struct {
	ix    *Index
	toks  []queryToken
	terms []string // the lexemes' terms (see queryToken)
	pos   int
}

func (p *queryParser) peek() (queryToken, bool) {
	if p.pos >= len(p.toks) {
		return queryToken{}, false
	}
	return p.toks[p.pos], true
}

func (p *queryParser) parseOr() (Query, error) {
	first, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	kids := []Query{first}
	for {
		t, ok := p.peek()
		if !ok || t.kind != "or" {
			break
		}
		p.pos++
		next, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		kids = append(kids, next)
	}
	if len(kids) == 1 {
		return kids[0], nil
	}
	return orQuery{kids}, nil
}

func (p *queryParser) parseAnd() (Query, error) {
	var kids []Query
	first, err := p.parseUnary()
	if err == nil {
		kids = append(kids, first)
	} else if err != errStopTerm {
		return nil, err
	}
	for {
		t, ok := p.peek()
		if !ok || t.kind == "or" || t.kind == ")" {
			break
		}
		if t.kind == "and" {
			p.pos++
		}
		next, err := p.parseUnary()
		if err == errStopTerm {
			continue // drop the stopword atom
		}
		if err != nil {
			return nil, err
		}
		kids = append(kids, next)
	}
	switch len(kids) {
	case 0:
		return nil, errStopTerm
	case 1:
		return kids[0], nil
	}
	return andQuery{kids}, nil
}

func (p *queryParser) parseUnary() (Query, error) {
	t, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("index: unexpected end of query")
	}
	if t.kind == "not" {
		p.pos++
		kid, err := p.parseUnary()
		if err != nil {
			return nil, err // a NOT over a stopword is meaningless: propagate the skip
		}
		return notQuery{kid}, nil
	}
	return p.parseAtom()
}

func (p *queryParser) parseAtom() (Query, error) {
	t, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("index: unexpected end of query")
	}
	switch t.kind {
	case "(":
		p.pos++
		q, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		nt, ok := p.peek()
		if !ok || nt.kind != ")" {
			return nil, fmt.Errorf("index: missing closing parenthesis")
		}
		p.pos++
		return q, nil
	case "word":
		p.pos++
		// Field-scoped term: title:polymerase, abstract:..., body:...,
		// index:... restrict matching to one section.
		if name, rest, ok := strings.Cut(t.text, ":"); ok && rest != "" {
			if sec, isField := parseField(name); isField {
				fieldTerms := p.terms[t.mid:t.hi]
				if len(fieldTerms) == 0 {
					return nil, errStopTerm
				}
				kids := make([]Query, len(fieldTerms))
				for i, tm := range fieldTerms {
					kids[i] = fieldQuery{sec, tm, p.ix.termID(tm)}
				}
				if len(kids) == 1 {
					return kids[0], nil
				}
				return andQuery{kids}, nil
			}
		}
		terms := p.terms[t.lo:t.hi]
		if len(terms) == 0 {
			return nil, errStopTerm
		}
		// A hyphenated compound can normalise to several terms: implicit
		// AND over them.
		kids := make([]Query, len(terms))
		for i, tm := range terms {
			kids[i] = termQuery{tm, p.ix.papers(p.ix.termID(tm))}
		}
		if len(kids) == 1 {
			return kids[0], nil
		}
		return andQuery{kids}, nil
	case "phrase":
		p.pos++
		words := p.terms[t.lo:t.hi]
		if len(words) == 0 {
			return nil, errStopTerm
		}
		ids := make([]int32, len(words))
		for i, w := range words {
			if ids[i] = p.ix.termID(w); ids[i] == corpus.NoTerm {
				return phraseQuery{words: words}, nil
			}
		}
		return phraseQuery{words, ids}, nil
	default:
		return nil, fmt.Errorf("index: unexpected %q", t.text)
	}
}

// sortHits orders hits by descending score, ties by ascending doc.
// slices.SortFunc rather than sort.Slice: the comparator is a plain
// function, so the call stays allocation-free.
func sortHits(hits []Hit) {
	slices.SortFunc(hits, func(a, b Hit) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		case a.Doc < b.Doc:
			return -1
		case a.Doc > b.Doc:
			return 1
		}
		return 0
	})
}
