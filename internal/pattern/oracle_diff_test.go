package pattern_test

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"ctxsearch"
	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/pattern"
	"ctxsearch/internal/prestige"
)

// spell renders term IDs as their space-joined words.
func spell(a *corpus.Analyzer, ids []int32) string {
	w := make([]string, len(ids))
	for i, id := range ids {
		w[i] = a.Term(id)
	}
	return strings.Join(w, " ")
}

// spellSet renders a word set as its sorted, space-joined words.
func spellSet(set map[string]bool) string {
	w := make([]string, 0, len(set))
	for k := range set {
		w = append(w, k)
	}
	sort.Strings(w)
	return strings.Join(w, " ")
}

// shownPattern is a pattern in words, comparable with ==.
type shownPattern struct {
	kind                pattern.Kind
	left, middle, right string
	hasTerm, hasFreq    bool
	score, doo1, doo2   float64
}

func showPatterns(a *corpus.Analyzer, s *pattern.Set) []shownPattern {
	out := make([]shownPattern, len(s.Patterns))
	for i, p := range s.Patterns {
		out[i] = shownPattern{p.Kind, spell(a, p.Left), spell(a, p.Middle), spell(a, p.Right), p.HasTermWords, p.HasFreqWords, p.Score, p.DOO1, p.DOO2}
	}
	return out
}

func showMapPatterns(s *mapSet) []shownPattern {
	out := make([]shownPattern, len(s.Patterns))
	for i, p := range s.Patterns {
		out[i] = shownPattern{p.Kind, spellSet(p.Left), p.MiddleKey(), spellSet(p.Right), p.HasTermWords, p.HasFreqWords, p.Score, p.DOO1, p.DOO2}
	}
	return out
}

// mapOcc is an oracle occurrence with its window. Positions differ between
// the two indexes (the map form counts gap slots), so occurrences are
// compared through what they locate: document, section and window words.
type mapOcc struct {
	doc         corpus.PaperID
	sec         corpus.Section
	left, right []string
}

// mapOccs returns the oracle's occurrences of a phrase over the whole
// corpus, in (doc, position) order, with their windows.
func mapOccs(ix *mapPosIndex, words []string, w int) []mapOcc {
	byDoc := ix.PhraseOccurrences(words, nil)
	docs := make([]corpus.PaperID, 0, len(byDoc))
	for d := range byDoc {
		docs = append(docs, d)
	}
	slices.Sort(docs)
	var out []mapOcc
	for _, d := range docs {
		for _, oc := range byDoc[d] {
			l, r := ix.Window(d, oc.Pos, len(words), w)
			out = append(out, mapOcc{d, oc.Section, l, r})
		}
	}
	return out
}

// sameOccs reports whether the term-ID occurrences of a phrase of n words
// locate the oracle occurrences want, in order, with the same w-word
// windows.
func sameOccs(ix *pattern.PosIndex, got []pattern.Occurrence, want []mapOcc, n, w int) bool {
	if len(got) != len(want) {
		return false
	}
	same := func(ids []int32, words []string) bool {
		return slices.EqualFunc(ids, words, func(id int32, w string) bool { return ix.Analyzer().Term(id) == w })
	}
	for i, oc := range got {
		l, r := ix.Window(oc.Doc, oc.Pos, n, w)
		if oc.Doc != want[i].doc || oc.Section != want[i].sec || !same(l, want[i].left) || !same(r, want[i].right) {
			return false
		}
	}
	return true
}

type shownPhrase struct {
	words         string
	support, occs int
}

// oracleSystem is the 500-paper, 120-term system of the golden integration
// test, built once with two workers.
var oracleSystem = sync.OnceValues(func() (*ctxsearch.System, error) {
	cfg := ctxsearch.DefaultConfig()
	cfg.Seed = 7
	cfg.Papers = 500
	cfg.OntologyTerms = 120
	cfg.MinContextSize = 5
	cfg.BuildWorkers = 2
	return ctxsearch.NewSyntheticSystem(cfg)
})

// matchMode pairs a pattern configuration with its match configuration:
// the full §3.3 scorer, and the simplified §4 context-set construction.
type matchMode struct {
	name string
	pcfg pattern.Config
	mcfg pattern.MatchConfig
}

func matchModes() []matchMode {
	full := matchMode{"full", pattern.DefaultConfig(), pattern.DefaultMatchConfig()}
	simple := matchMode{"middle-only", pattern.DefaultConfig(), pattern.DefaultMatchConfig()}
	simple.pcfg.Extended = false
	simple.mcfg.MiddleOnly = true
	return []matchMode{full, simple}
}

// contextStride is how many contexts a differential test steps over per
// context it checks: every one, except under the race detector, whose
// slowdown would make the map-form oracle take minutes. The concurrent
// scoring it is there to watch still covers every context.
func contextStride() int {
	if raceEnabled {
		return 8
	}
	return 1
}

// oracle pairs the term-ID structures of one analyzer with the map-form
// ones and caches, across parallel subtests, each term's patterns and each
// phrase's corpus-wide occurrences — checked against the term-ID results
// when first computed.
type oracle struct {
	a     *corpus.Analyzer
	onto  *ontology.Ontology
	ix    *pattern.PosIndex
	ref   *mapPosIndex
	df    []int32
	refDF map[string]int

	mu       sync.Mutex
	patterns map[string]builtPair // by mode name and term
	occs     map[string][]mapOcc  // by phrase words
}

// builtPair is one term's pattern set in both forms.
type builtPair struct {
	set *pattern.Set
	ref *mapSet
}

// window is the match window both match modes use.
var window = pattern.DefaultMatchConfig().Window

// patternsFor builds a term's patterns with both builders and checks that
// they, and the phrases mined from the term's training papers, agree in
// words and bits.
func (o *oracle) patternsFor(t *testing.T, mode matchMode, term ontology.TermID) builtPair {
	key := mode.name + "|" + string(term)
	o.mu.Lock()
	b, ok := o.patterns[key]
	o.mu.Unlock()
	if ok {
		return b
	}
	training := o.a.Corpus().EvidencePapers(term)
	b = builtPair{
		pattern.Build(o.ix, o.onto, term, training, o.df, mode.pcfg),
		mapBuild(o.ref, o.onto, term, training, o.refDF, mode.pcfg),
	}
	if got, want := showPatterns(o.a, b.set), showMapPatterns(b.ref); !slices.Equal(got, want) {
		t.Fatalf("%s: patterns\n%v\nwant\n%v", term, got, want)
	}
	mcfg := pattern.MineConfig{MinSupport: mode.pcfg.MinSupport, MaxLen: mode.pcfg.MaxPhraseLen}
	var got, want []shownPhrase
	for _, fp := range pattern.MineFrequentPhrases(o.ix, training, mcfg) {
		got = append(got, shownPhrase{spell(o.a, fp.Words), fp.Support, fp.Occurrences})
	}
	for _, fp := range mapMine(o.ref, training, mcfg) {
		want = append(want, shownPhrase{fp.Key(), fp.Support, fp.Occurrences})
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: mined %v, want %v", term, got, want)
	}
	o.mu.Lock()
	o.patterns[key] = b
	o.mu.Unlock()
	return b
}

// occurrencesOf returns the oracle's corpus-wide occurrences of a phrase,
// after checking the index's occurrences and document frequency against
// them.
func (o *oracle) occurrencesOf(t *testing.T, ids []int32, words []string) []mapOcc {
	key := strings.Join(words, " ")
	o.mu.Lock()
	want, ok := o.occs[key]
	o.mu.Unlock()
	if ok {
		return want
	}
	want = mapOccs(o.ref, words, window)
	if !sameOccs(o.ix, o.ix.PhraseOccurrences(ids, nil, nil), want, len(ids), window) {
		t.Fatalf("occurrences of %q differ from the oracle's", key)
	}
	docs := 0
	for j := range want {
		if j == 0 || want[j].doc != want[j-1].doc {
			docs++
		}
	}
	if got := o.ix.DocFreqOfPhrase(ids); got != docs {
		t.Fatalf("DocFreqOfPhrase(%q) = %d, want %d", key, got, docs)
	}
	o.mu.Lock()
	o.occs[key] = want
	o.mu.Unlock()
	return want
}

// TestFlatIndexMatchesMapOracle holds the term-ID index, miner, builder and
// matcher to the map-form oracle over every pattern of every context of the
// golden system, for both context-set kinds and both match modes (one
// parallel subtest each): mined phrases, and built patterns with their
// scores, in words and bits; the occurrences of each middle matched as a
// phrase, in the corpus and inside the context (document, section and
// window words), and its document frequency; and every paper's match score,
// bit for bit. Papers the oracle leaves out of its score map must score 0.
// Middle-joined middles are matched as word sets, so they are held to the
// oracle through the scores.
//
// Meanwhile prestige.Score scores the pattern contexts with the full match
// on two workers sharing the index and one scorer — run the test under the
// race detector — and every context's run must be the oracle's scores over
// its members, max-normalised and damped by the context's decay.
func TestFlatIndexMatchesMapOracle(t *testing.T) {
	sys, err := oracleSystem()
	if err != nil {
		t.Fatal(err)
	}
	a, onto := sys.Analyzer(), sys.Ontology
	o := &oracle{
		a: a, onto: onto, ix: sys.PosIndex(), ref: newMapPosIndex(a, 0),
		patterns: map[string]builtPair{}, occs: map[string][]mapOcc{},
	}
	o.df, o.refDF = pattern.TermWordDF(onto, o.ix), mapTermWordDF(onto, o.ref)
	cfg := sys.Config()
	for _, mode := range matchModes() {
		for _, cs := range []*contextset.ContextSet{sys.BuildTextContextSet(), sys.BuildPatternContextSet()} {
			t.Run(mode.name+"/"+cs.Kind().String(), func(t *testing.T) {
				t.Parallel()
				var m *prestige.Matrix
				scored := make(chan struct{})
				if mode.name == "full" && cs.Kind() == contextset.PatternBased {
					go func() {
						defer close(scored)
						m = prestige.Score(prestige.NewPatternScorer(o.ix, onto, cfg.Pattern, cfg.Match), cs, cfg.MinContextSize, 2)
					}()
				} else {
					close(scored)
				}
				defer func() { <-scored }()
				raw := map[ontology.TermID]map[corpus.PaperID]float64{}
				dst := make([]float64, a.Corpus().Len())
				for k, ctx := range cs.Contexts() {
					if k%contextStride() != 0 {
						continue
					}
					term := ctx
					if origin, ok := cs.InheritedFrom(ctx); ok {
						term = origin
					}
					b := o.patternsFor(t, mode, term)
					within := map[corpus.PaperID]bool{}
					for _, p := range cs.Papers(ctx) {
						within[p] = true
					}
					bits := cs.PaperBitset(ctx)
					for i, p := range b.set.Patterns {
						if p.Kind == pattern.MiddleJoined {
							continue
						}
						var want []mapOcc
						for _, oc := range o.occurrencesOf(t, p.Middle, b.ref.Patterns[i].Middle) {
							if within[oc.doc] {
								want = append(want, oc)
							}
						}
						if !sameOccs(o.ix, o.ix.PhraseOccurrences(p.Middle, bits, nil), want, len(p.Middle), window) {
							t.Fatalf("%s: occurrences of %s in the context differ from the oracle's", ctx, spell(a, p.Middle))
						}
					}
					clear(dst)
					b.set.ScorePapers(o.ix, bits, mode.mcfg, dst)
					want := b.ref.ScorePapers(o.ref, within, mode.mcfg)
					for d, s := range dst {
						if w, ok := want[corpus.PaperID(d)]; s != w || ok != (s != 0) {
							t.Fatalf("%s: paper %d scores %v, want %v (in oracle map: %v)", ctx, d, s, w, ok)
						}
					}
					raw[ctx] = want
				}
				<-scored
				if m == nil {
					return
				}
				checked := 0
				for _, ctx := range m.Contexts() {
					scores, ok := raw[ctx]
					if !ok {
						continue
					}
					run := m.Run(ctx)
					want := make([]float64, len(run.Docs))
					var max float64
					for i, d := range run.Docs {
						want[i] = scores[d]
						max = math.Max(max, want[i])
					}
					for i := range want {
						if max > 0 {
							want[i] /= max
						}
						if d := cs.Decay(ctx); d != 1 {
							want[i] *= d
						}
					}
					if !slices.Equal(run.Vals, want) {
						t.Fatalf("%s: prestige run %v, want %v", ctx, run.Vals, want)
					}
					checked++
				}
				if checked == 0 {
					t.Fatal("no prestige run checked")
				}
			})
		}
	}
}

// TestUnknownNameWordsKeepTheirSlots: a context name word no paper contains
// yields no pattern, but each of the name's runs still takes one of the
// MaxSignificant slots, deduplicated on the words — so two different
// unknown words stay apart and a repeated one does not. The patterns equal
// the oracle's at every cap.
func TestUnknownNameWordsKeepTheirSlots(t *testing.T) {
	o := ontology.New()
	for _, tm := range []ontology.Term{
		{ID: "GO:1", Name: "molecular function"},
		{ID: "GO:2", Name: "qqfoo zinc qqbar", Parents: []ontology.TermID{"GO:1"}},
		{ID: "GO:3", Name: "qqfoo zinc qqfoo", Parents: []ontology.TermID{"GO:1"}},
	} {
		if err := o.Add(tm); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Build(); err != nil {
		t.Fatal(err)
	}
	c, err := corpus.NewCorpus([]*corpus.Paper{
		{ID: 0, Title: "zinc finger binding domains", Abstract: "we study zinc finger binding in cells", Body: "the zinc finger binding assay revealed strong effects in cells", Authors: []string{"a b"}},
		{ID: 1, Title: "novel zinc finger binding factors", Abstract: "zinc finger binding proteins in cells", Body: "cells show zinc finger binding activity and strong effects", Authors: []string{"c d"}},
		{ID: 2, Title: "metallurgy of steel", Abstract: "corrosion and alloys", Body: "steel is strong", Authors: []string{"e f"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	ix, ref := pattern.NewPosIndex(a), newMapPosIndex(a, 0)
	df, refDF := pattern.TermWordDF(o, ix), mapTermWordDF(o, ref)
	training := []corpus.PaperID{0, 1}
	for _, tc := range []struct {
		term  ontology.TermID
		slots int // distinct runs of the name's words
	}{{"GO:2", 6}, {"GO:3", 5}} {
		for max := 1; max <= 12; max++ {
			cfg := pattern.DefaultConfig()
			cfg.MaxSignificant = max
			got := showPatterns(a, pattern.Build(ix, o, tc.term, training, df, cfg))
			want := showMapPatterns(mapBuild(ref, o, tc.term, training, refDF, cfg))
			if !slices.Equal(got, want) {
				t.Fatalf("%s MaxSignificant %d: patterns\n%v\nwant\n%v", tc.term, max, got, want)
			}
			// Only "zinc" of the name occurs, the name's fifth run: from
			// there up to the name's run count the set holds its one
			// regular pattern.
			if wantN := min(max/5, 1); max <= tc.slots && len(got) != wantN {
				t.Fatalf("%s MaxSignificant %d: %d patterns, want %d", tc.term, max, len(got), wantN)
			}
			if max == tc.slots+1 && len(got) < 2 {
				t.Fatalf("%s MaxSignificant %d: no mined pattern past the name's %d slots", tc.term, max, tc.slots)
			}
		}
	}
}
