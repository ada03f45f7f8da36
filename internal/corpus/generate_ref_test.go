package corpus

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// genText is the one-pass text sampler drawText and renderText replaced,
// kept as their differential reference: it draws and writes each word in
// turn.
func genText(rng *rand.Rand, mix []*topicModel, n int, topicProb float64) string {
	if topicProb > 0.9 {
		topicProb = 0.9
	}
	var b strings.Builder
	b.Grow(n * 10)
	sentenceLeft := 0
	emitted := 0
	for emitted < n {
		if sentenceLeft <= 0 {
			sentenceLeft = 8 + rng.Intn(11)
			if b.Len() > 0 {
				b.WriteString(". ")
			}
		} else {
			b.WriteByte(' ')
		}
		if rng.Float64() < topicProb {
			m := mix[pickTopic(rng, mix)]
			if rng.Float64() < 0.25 {
				// Emit the whole term-name phrase.
				b.WriteString(m.namePhrase)
				emitted += len(m.nameWords)
				sentenceLeft -= len(m.nameWords)
				continue
			}
			b.WriteString(m.signature[rng.Intn(len(m.signature))])
		} else {
			b.WriteString(zipfWord(rng))
		}
		emitted++
		sentenceLeft--
	}
	b.WriteByte('.')
	return b.String()
}

// zipfWord samples a background word with probability ∝ 1/rank.
func zipfWord(rng *rand.Rand) string {
	return backgroundVocab[backgroundRanks.rank(rng.Float64())-1]
}

// TestDrawRenderMatchesGenText holds drawText + renderText to genText: from
// identically seeded RNGs, over every word count of a title (9–14), an
// abstract (90–160) and a body (380–800) and a one-word text, topicalities
// from none through the 0.9 clamp, and mixes of one to three topics, the
// texts must be equal and the next draw of both RNGs the same — the split
// consumes exactly the draws genText does.
func TestDrawRenderMatchesGenText(t *testing.T) {
	o := testOntology(t)
	models, terms := buildTopicModels(o, DefaultGenConfig(1), rand.New(rand.NewSource(3)))
	var mixes [][]*topicModel
	for size := 1; size <= 3; size++ {
		for first := 0; first < 2; first++ {
			var mix []*topicModel
			for k := range size {
				mix = append(mix, models[terms[(first*37+k*11)%len(terms)]])
			}
			mixes = append(mixes, mix)
		}
	}
	ns := []int{1}
	for _, r := range [][2]int{{9, 14}, {90, 160}, {380, 800}} {
		for n := r[0]; n <= r[1]; n++ {
			ns = append(ns, n)
		}
	}
	var codes []uint32
	for i, n := range ns {
		for _, topicProb := range []float64{0, 0.3, 0.9, 1.5} {
			for m, mix := range mixes {
				seed := int64(i*100 + m)
				rng, refRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				ref := genText(refRNG, mix, n, topicProb)
				codes = drawText(rng, mix, n, topicProb, codes[:0])
				if got := renderText(mix, codes); got != ref {
					t.Fatalf("%s: text\n%q\nwant\n%q", caseName(n, topicProb, len(mix)), got, ref)
				}
				if got, ref := rng.Int63(), refRNG.Int63(); got != ref {
					t.Fatalf("%s: next draw %d, want %d: a draw was skipped or added", caseName(n, topicProb, len(mix)), got, ref)
				}
			}
		}
	}
}

func caseName(n int, topicProb float64, topics int) string {
	return fmt.Sprintf("n=%d topicProb=%v topics=%d", n, topicProb, topics)
}
