package corpus

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"ctxsearch/internal/ontology"
)

// GenConfig configures the synthetic corpus generator.
type GenConfig struct {
	// Seed makes generation deterministic.
	Seed int64
	// NumPapers is the number of papers to generate.
	NumPapers int
	// TopicMixProb is the per-position probability that a sampled word
	// comes from the paper's topic signature rather than the background
	// vocabulary, for the body section. Title/abstract/index terms use
	// progressively higher topicality.
	TopicMixProb float64
	// EvidencePerTerm caps how many papers are marked as annotation
	// evidence (training) papers per term.
	EvidencePerTerm int
	// RefMean is the mean number of references per paper.
	RefMean int
	// InTopicCiteProb is the probability a reference goes to a paper
	// sharing a topic (vs a uniformly random older paper). The paper's §1
	// attributes citation-score weakness to cross-context citations; this
	// knob controls exactly that sparseness.
	InTopicCiteProb float64
	// CiteUpProb is the probability an in-topic citation is redirected to
	// a paper of an ANCESTOR of the topic instead of the topic itself.
	// Real papers cite foundational (broader) work, so deep contexts keep
	// few citations internal — the per-context sparseness the paper's §5
	// blames for the citation function's weakness.
	CiteUpProb float64
	// AuthorsPerTopic is the size of each topic's author community.
	AuthorsPerTopic int
	// YearRange spans publication years [MinYear, MaxYear].
	MinYear, MaxYear int
}

// DefaultGenConfig returns the generator configuration used by the
// experiments at the given corpus size.
func DefaultGenConfig(numPapers int) GenConfig {
	return GenConfig{
		Seed:            1,
		NumPapers:       numPapers,
		TopicMixProb:    0.22,
		EvidencePerTerm: 5,
		RefMean:         12,
		InTopicCiteProb: 0.55,
		CiteUpProb:      0.80,
		AuthorsPerTopic: 9,
		MinYear:         1990,
		MaxYear:         2006,
	}
}

// topicModel holds the per-term generative vocabulary.
type topicModel struct {
	term ontology.TermID
	// nameWords are the words of the term's own name (highly topical).
	nameWords []string
	// namePhrase is the full term name, emitted verbatim sometimes so that
	// pattern mining finds the term words as contiguous phrases.
	namePhrase string
	// signature is the wider topical vocabulary: own and ancestor name
	// words plus synthetic gene symbols unique to the term.
	signature []string
	// authors is the term's author community.
	authors []string
}

// Generate produces a deterministic synthetic corpus over the given
// ontology. Every generated paper receives 1–3 ground-truth topics drawn
// from non-root terms; text sections are sampled from a mixture of the
// topic signatures and the background vocabulary; citations prefer papers
// sharing a topic; per-term evidence papers are marked.
//
// A paper's text is drawn as word codes (drawText) on the calling goroutine
// and spelled into strings (renderText) on a second one, pipelined through
// a few recycled code buffers. Spelling reads no RNG and the papers keep
// their order, so the corpus is the same bytes at any GOMAXPROCS.
func Generate(onto *ontology.Ontology, cfg GenConfig) (*Corpus, error) {
	if cfg.NumPapers <= 0 {
		return nil, fmt.Errorf("corpus: NumPapers must be positive, got %d", cfg.NumPapers)
	}
	if onto == nil || onto.Len() == 0 {
		return nil, fmt.Errorf("corpus: ontology is empty")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	models, termList := buildTopicModels(onto, cfg, rng)
	if len(termList) == 0 {
		return nil, fmt.Errorf("corpus: ontology has no non-root terms to use as topics")
	}

	papers := make([]*Paper, cfg.NumPapers)
	byTopic := make(map[ontology.TermID][]PaperID)
	evidenceCount := make(map[ontology.TermID]int)
	// Non-root ancestors per term, for upward citation redirection.
	ancestorsOf := make(map[ontology.TermID][]ontology.TermID, len(termList))
	for _, t := range termList {
		for _, a := range onto.Ancestors(t) {
			if onto.Level(a) >= 2 {
				ancestorsOf[t] = append(ancestorsOf[t], a)
			}
		}
	}

	// Text is drawn here and spelled by the pipe, behind this loop: a paper
	// handed to pipe.add is not touched here again, and nothing reads its
	// text before pipe.wait.
	pipe := newTextPipe()
	for i := 0; i < cfg.NumPapers; i++ {
		id := PaperID(i)
		topics := drawTopics(onto, termList, rng)
		p := &Paper{
			ID:     id,
			PMID:   10_000_000 + i,
			Year:   cfg.MinYear + i*(cfg.MaxYear-cfg.MinYear+1)/cfg.NumPapers,
			Topics: topics,
		}
		mix := make([]*topicModel, len(topics))
		for k, t := range topics {
			mix[k] = models[t]
		}
		// Papers on broad (shallow) topics read generically — a paper about
		// "biological process"-level concepts has no sharp vocabulary —
		// while deep-topic papers are sharply topical. This is what makes
		// representative papers of upper-level contexts characterise them
		// poorly (the paper's Figure 5.5 observation).
		depth := onto.Level(topics[0])
		sharp := 0.45 + float64(0.11*float64(depth-2))
		if sharp > 1 {
			sharp = 1
		}
		topical := float64(cfg.TopicMixProb * sharp)
		b := pipe.batch()
		b.codes = drawText(rng, mix, 9+rng.Intn(6), 3.2*topical, b.codes)
		title := len(b.codes)
		b.codes = drawText(rng, mix, 90+rng.Intn(70), 2.0*topical, b.codes)
		abstract := len(b.codes)
		b.codes = drawText(rng, mix, 380+rng.Intn(420), topical, b.codes)
		p.IndexTerms = genIndexTerms(rng, mix)
		p.Authors = genAuthors(rng, mix)
		p.References = genReferences(rng, cfg, p, byTopic, ancestorsOf, i)

		if evidenceCount[topics[0]] < cfg.EvidencePerTerm {
			p.Evidence = true
			evidenceCount[topics[0]]++
		}
		pipe.add(drawnPaper{p, mix, [3]int{title, abstract, len(b.codes)}})
		papers[i] = p
		for _, t := range topics {
			byTopic[t] = append(byTopic[t], id)
		}
	}
	pipe.wait()
	return NewCorpus(papers)
}

// buildTopicModels derives each non-root term's generative vocabulary and
// author community.
func buildTopicModels(onto *ontology.Ontology, cfg GenConfig, rng *rand.Rand) (map[ontology.TermID]*topicModel, []ontology.TermID) {
	models := make(map[ontology.TermID]*topicModel, onto.Len())
	var termList []ontology.TermID
	for _, id := range onto.TermIDs() {
		if onto.Level(id) < 2 {
			continue // roots are not usable topics
		}
		t := onto.Term(id)
		name := strings.ToLower(t.Name)
		words := strings.Fields(name)
		// Own name words carry triple weight so deep topics stay textually
		// distinct from the ancestors whose vocabulary they embed.
		var sig []string
		for k := 0; k < 3; k++ {
			sig = append(sig, words...)
		}
		// Ancestor vocabulary, thinner with hierarchical distance.
		level := onto.Level(id)
		for _, anc := range onto.Ancestors(id) {
			al := onto.Level(anc)
			if al < 2 {
				continue
			}
			dist := level - al
			if dist < 1 {
				dist = 1
			}
			if dist > 3 {
				continue // far ancestors contribute nothing
			}
			for _, w := range strings.Fields(strings.ToLower(onto.Term(anc).Name)) {
				sig = append(sig, w)
			}
		}
		// Synthetic gene symbols unique to the term, e.g. "gqr4b". These
		// play the role of the gene/protein names that make real genomics
		// abstracts separable.
		for g := 0; g < 6; g++ {
			sym := fmt.Sprintf("%c%c%c%d%c",
				'a'+rng.Intn(26), 'a'+rng.Intn(26), 'a'+rng.Intn(26),
				1+rng.Intn(9), 'a'+rng.Intn(26))
			sig = append(sig, sym)
		}
		m := &topicModel{term: id, nameWords: words, namePhrase: name, signature: sig}
		for a := 0; a < cfg.AuthorsPerTopic; a++ {
			m.authors = append(m.authors,
				firstNames[rng.Intn(len(firstNames))]+" "+lastNames[rng.Intn(len(lastNames))])
		}
		models[id] = m
		termList = append(termList, id)
	}
	slices.Sort(termList)
	return models, termList
}

// drawTopics picks 1–3 ground-truth topics: a primary term uniform over
// non-root terms, then with decreasing probability an ancestor or another
// random term, echoing the topic diffusion of real papers.
func drawTopics(onto *ontology.Ontology, termList []ontology.TermID, rng *rand.Rand) []ontology.TermID {
	primary := termList[rng.Intn(len(termList))]
	topics := []ontology.TermID{primary}
	if rng.Float64() < 0.45 {
		if parents := onto.Parents(primary); len(parents) > 0 && onto.Level(parents[0]) >= 2 {
			topics = append(topics, parents[0])
		}
	}
	if rng.Float64() < 0.25 {
		other := termList[rng.Intn(len(termList))]
		dup := false
		for _, t := range topics {
			if t == other {
				dup = true
			}
		}
		if !dup {
			topics = append(topics, other)
		}
	}
	return topics
}

// A word code is one drawn word of a text: the word's index in the low
// codeMixShift bits, a topical word's position in the topic mix above them,
// its kind in the two bits above that, and whether it starts a sentence in
// the top bit. Signatures and the background vocabulary hold far fewer than
// 2^24 words, and a paper has at most three topics.
const (
	codeMixShift  = 24
	codeIndexMask = 1<<codeMixShift - 1
	codeMixMask   = 0xF
	codeSignature = 1 << 28 // a word of the topic's signature
	codePhrase    = 1 << 29 // the topic's whole name phrase
	codeSentence  = 1 << 31
)

// drawText samples n words and appends their codes to codes. With
// probability topicProb a word comes from a topic model (primary weighted
// double); topical emissions sometimes output the full term-name phrase so
// patterns appear contiguously. Background words are sampled with a
// Zipf-like rank distribution. Sentences run 8–18 words.
func drawText(rng *rand.Rand, mix []*topicModel, n int, topicProb float64, codes []uint32) []uint32 {
	if topicProb > 0.9 {
		topicProb = 0.9
	}
	sentenceLeft := 0
	emitted := 0
	for emitted < n {
		var c uint32
		if sentenceLeft <= 0 {
			sentenceLeft = 8 + rng.Intn(11)
			c = codeSentence
		}
		if rng.Float64() < topicProb {
			k := pickTopic(rng, mix)
			m := mix[k]
			c |= uint32(k) << codeMixShift
			if rng.Float64() < 0.25 {
				// Emit the whole term-name phrase.
				codes = append(codes, c|codePhrase)
				emitted += len(m.nameWords)
				sentenceLeft -= len(m.nameWords)
				continue
			}
			c |= codeSignature | uint32(rng.Intn(len(m.signature)))
		} else {
			c |= uint32(backgroundRanks.rank(rng.Float64()) - 1)
		}
		codes = append(codes, c)
		emitted++
		sentenceLeft--
	}
	return codes
}

// word returns the word a code stands for.
func word(mix []*topicModel, c uint32) string {
	i := c & codeIndexMask
	switch {
	case c&codePhrase != 0:
		return mix[c>>codeMixShift&codeMixMask].namePhrase
	case c&codeSignature != 0:
		return mix[c>>codeMixShift&codeMixMask].signature[i]
	}
	return backgroundVocab[i]
}

// renderText spells drawn codes as prose: words separated by spaces, ". "
// before every sentence but the first, and a closing period. The string is
// allocated at its exact length.
func renderText(mix []*topicModel, codes []uint32) string {
	size := 0
	for _, c := range codes {
		if c&codeSentence == 0 {
			size++
		} else if size > 0 {
			size += 2
		}
		size += len(word(mix, c))
	}
	var b strings.Builder
	b.Grow(size + 1)
	for _, c := range codes {
		if c&codeSentence == 0 {
			b.WriteByte(' ')
		} else if b.Len() > 0 {
			b.WriteString(". ")
		}
		b.WriteString(word(mix, c))
	}
	b.WriteByte('.')
	return b.String()
}

// drawnPaper is a paper whose text is drawn but not yet spelled: its title,
// abstract and body codes end at ends[0..2] of its batch's codes, each
// starting where the previous ends (the title where the previous paper's
// body does).
type drawnPaper struct {
	p    *Paper
	mix  []*topicModel
	ends [3]int
}

// textBatch is one recycled code buffer: a few consecutive papers' codes.
type textBatch struct {
	codes  []uint32
	papers []drawnPaper
}

// render spells the batch's papers' text into them and empties the batch.
func (b *textBatch) render() {
	lo := 0
	for _, d := range b.papers {
		d.p.Title = renderText(d.mix, b.codes[lo:d.ends[0]])
		d.p.Abstract = renderText(d.mix, b.codes[d.ends[0]:d.ends[1]])
		d.p.Body = renderText(d.mix, b.codes[d.ends[1]:d.ends[2]])
		lo = d.ends[2]
	}
	clear(b.papers)
	b.papers, b.codes = b.papers[:0], b.codes[:0]
}

// Pipe sizing: a batch is textBatchPapers papers (≈ 3 KB of codes each),
// and textBuffers batches circulate, so the drawing loop runs ahead of the
// renderer by at most that many papers whatever the corpus size.
const (
	textBatchPapers = 8
	textBuffers     = 4
)

// textPipe hands full batches from the drawing loop to one rendering
// goroutine and empty ones back.
type textPipe struct {
	cur  *textBatch
	full chan *textBatch
	free chan *textBatch
	done chan struct{}
}

func newTextPipe() *textPipe {
	// Each channel can hold every batch there is, so neither side's send
	// ever blocks; only receives wait.
	tp := &textPipe{
		cur:  new(textBatch),
		full: make(chan *textBatch, textBuffers),
		free: make(chan *textBatch, textBuffers),
		done: make(chan struct{}),
	}
	for range textBuffers - 1 {
		tp.free <- new(textBatch)
	}
	go func() {
		defer close(tp.done)
		for b := range tp.full {
			b.render()
			tp.free <- b
		}
	}()
	return tp
}

// batch returns the batch the next paper's codes are appended to.
func (tp *textPipe) batch() *textBatch {
	if tp.cur == nil {
		tp.cur = <-tp.free
	}
	return tp.cur
}

// add records a drawn paper in the current batch and hands the batch on
// once it is full.
func (tp *textPipe) add(d drawnPaper) {
	tp.cur.papers = append(tp.cur.papers, d)
	if len(tp.cur.papers) == textBatchPapers {
		tp.flush()
	}
}

func (tp *textPipe) flush() {
	tp.full <- tp.cur
	tp.cur = nil
}

// wait renders what is left and returns once every paper has its text.
func (tp *textPipe) wait() {
	if tp.cur != nil && len(tp.cur.papers) > 0 {
		tp.flush()
	}
	close(tp.full)
	<-tp.done
}

// pickTopic selects a topic from the mixture, by index, with the primary
// topic (index 0) given double weight.
func pickTopic(rng *rand.Rand, mix []*topicModel) int {
	if len(mix) == 1 {
		return 0
	}
	k := rng.Intn(len(mix) + 1)
	if k >= len(mix) {
		k = 0
	}
	return k
}

// powRank is the sampler's definition: inverse-CDF sampling for 1/rank over
// n items under the harmonic approximation H(n) ≈ ln(n) + γ, where
// H(rank)/H(n) ≈ u gives rank ≈ n^u.
func powRank(n int, u float64) int {
	rank := int(math.Pow(float64(n), u))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// zipfBuckets is how many equal slices of [0,1) the rank table indexes; it
// is a power of two so that a draw's slice is exact, and fine enough that a
// slice holds at most one cut while n·ln n < zipfBuckets (n is 233), so the
// walk from a slice's start is one comparison or two.
const zipfBuckets = 4096

// zipfNearCut is how close to a cut a draw has to lie before the table
// hands it to powRank. A draw that far inside its interval is a relative
// 5e-12 or more of n^u away from the integer on either side (ln n ≥ 5),
// thousands of times the rounding of math.Pow or of a table entry.
const zipfNearCut = 1e-12

// zipfTable computes powRank(n, u) without the math.Pow: int(n^u) is k
// exactly when u ∈ [ln k/ln n, ln(k+1)/ln n), so the n cuts are computed
// once and a draw is located among them.
type zipfTable struct {
	n int
	// cuts[k] = ln(k+1)/ln n for k = 0..n: rank k+1 owns [cuts[k],
	// cuts[k+1]), and cuts[n] > 1 ends every walk.
	cuts []float64
	// start[b] is the last k with cuts[k] ≤ b/zipfBuckets, where the walk
	// for a draw in slice b begins.
	start [zipfBuckets]int32
}

func newZipfTable(n int) *zipfTable {
	t := &zipfTable{n: n, cuts: make([]float64, n+1)}
	ln := math.Log(float64(n))
	for k := range t.cuts {
		t.cuts[k] = math.Log(float64(k+1)) / ln
	}
	k := 0
	for b := range t.start {
		for t.cuts[k+1] <= float64(b)/zipfBuckets {
			k++
		}
		t.start[b] = int32(k)
	}
	return t
}

// rank returns powRank(t.n, u) for u in [0,1).
func (t *zipfTable) rank(u float64) int {
	k := int(t.start[int(u*zipfBuckets)])
	for t.cuts[k+1] <= u {
		k++
	}
	if u-t.cuts[k] < zipfNearCut || t.cuts[k+1]-u < zipfNearCut {
		return powRank(t.n, u)
	}
	return k + 1
}

var backgroundRanks = newZipfTable(len(backgroundVocab))

// genIndexTerms emits 4–8 index terms: term-name phrases of the topics plus
// a couple of signature words.
func genIndexTerms(rng *rand.Rand, mix []*topicModel) []string {
	var out []string
	for _, m := range mix {
		out = append(out, m.namePhrase)
	}
	extra := 2 + rng.Intn(3)
	for i := 0; i < extra; i++ {
		m := mix[pickTopic(rng, mix)]
		out = append(out, m.signature[rng.Intn(len(m.signature))])
	}
	return out
}

// genAuthors draws 2–5 authors, mostly from the primary topic's community
// so that author-overlap similarity is informative.
func genAuthors(rng *rand.Rand, mix []*topicModel) []string {
	n := 2 + rng.Intn(4)
	out := make([]string, 0, n)
	for len(out) < n {
		m := mix[0]
		if rng.Float64() < 0.25 {
			m = mix[pickTopic(rng, mix)]
		}
		a := m.authors[rng.Intn(len(m.authors))]
		if !slices.Contains(out, a) {
			out = append(out, a)
		}
		if len(out) >= len(m.authors)*len(mix) {
			break // communities exhausted; accept fewer authors
		}
	}
	return out
}

// genReferences draws citations for paper i: mostly to older papers sharing
// a topic (weighted toward already-cited papers, i.e. preferential
// attachment), the rest uniformly random older papers.
func genReferences(rng *rand.Rand, cfg GenConfig, p *Paper, byTopic map[ontology.TermID][]PaperID, ancestorsOf map[ontology.TermID][]ontology.TermID, i int) []PaperID {
	if i == 0 {
		return nil
	}
	nRefs := cfg.RefMean/2 + rng.Intn(cfg.RefMean+1)
	if nRefs == 0 {
		return nil
	}
	// At most 1.5·RefMean references: a scan of out beats a map per paper.
	out := make([]PaperID, 0, nRefs)
	// Bounded retries: small in-topic pools reject duplicates often, so a
	// single pass would dilute the in-topic bias toward random citations.
	for attempts := 0; len(out) < nRefs && attempts < 8*nRefs; attempts++ {
		var cand PaperID = -1
		if rng.Float64() < cfg.InTopicCiteProb {
			topic := p.Topics[rng.Intn(len(p.Topics))]
			// Citations prefer broader, foundational work: redirect to an
			// ancestor topic's pool with probability CiteUpProb.
			if ancs := ancestorsOf[topic]; len(ancs) > 0 && rng.Float64() < cfg.CiteUpProb {
				topic = ancs[rng.Intn(len(ancs))]
			}
			pool := byTopic[topic]
			if len(pool) > 0 {
				// Preferential attachment flavour: sample two, keep the
				// older (older papers accumulate more citations naturally).
				a := pool[rng.Intn(len(pool))]
				b := pool[rng.Intn(len(pool))]
				cand = a
				if b < a {
					cand = b
				}
			}
		}
		if cand < 0 {
			cand = PaperID(rng.Intn(i))
		}
		if cand >= p.ID || slices.Contains(out, cand) {
			continue
		}
		out = append(out, cand)
	}
	slices.Sort(out)
	return out
}
