package cluster

import (
	"reflect"
	"testing"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
)

// twoTopicCorpus builds papers from two clearly separated vocabularies.
func twoTopicCorpus(t *testing.T) (*corpus.Analyzer, []corpus.PaperID, map[corpus.PaperID]string) {
	t.Helper()
	var papers []*corpus.Paper
	labels := map[corpus.PaperID]string{}
	bioTexts := []string{
		"rna polymerase transcription machinery in cells",
		"transcription of rna by polymerase enzymes",
		"cellular rna transcription control",
		"polymerase driven rna synthesis in the cell",
	}
	metalTexts := []string{
		"steel corrosion in marine alloys",
		"alloy hardness and corrosion resistance",
		"corrosion of steel structures",
		"marine alloy steel treatments",
	}
	id := corpus.PaperID(0)
	for _, txt := range bioTexts {
		papers = append(papers, &corpus.Paper{ID: id, Title: txt, Abstract: txt, Body: txt, Authors: []string{"x"}})
		labels[id] = "bio"
		id++
	}
	for _, txt := range metalTexts {
		papers = append(papers, &corpus.Paper{ID: id, Title: txt, Abstract: txt, Body: txt, Authors: []string{"y"}})
		labels[id] = "metal"
		id++
	}
	c, err := corpus.NewCorpus(papers)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]corpus.PaperID, len(papers))
	for i := range papers {
		ids[i] = corpus.PaperID(i)
	}
	return corpus.NewAnalyzerWorkers(c, 0), ids, labels
}

func TestKMeansSeparatesTopics(t *testing.T) {
	a, ids, labels := twoTopicCorpus(t)
	clusters, err := KMeans(a, ids, Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d", len(clusters))
	}
	groups := [][]corpus.PaperID{clusters[0].Docs, clusters[1].Docs}
	if p := Purity(groups, labels); p != 1 {
		t.Fatalf("purity = %v for trivially separable topics: %v", p, clusters)
	}
	// Labels reflect the vocabulary.
	for _, cl := range clusters {
		if len(cl.Label) == 0 {
			t.Fatal("missing cluster label")
		}
	}
}

func TestKMeansDeterministic(t *testing.T) {
	a, ids, _ := twoTopicCorpus(t)
	c1, err := KMeans(a, ids, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := KMeans(a, ids, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(c1) != len(c2) {
		t.Fatal("cluster counts differ")
	}
	for i := range c1 {
		if !reflect.DeepEqual(c1[i].Docs, c2[i].Docs) {
			t.Fatalf("cluster %d differs between runs", i)
		}
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	a, ids, _ := twoTopicCorpus(t)
	if _, err := KMeans(a, nil, Config{}); err == nil {
		t.Fatal("empty input must fail")
	}
	// K larger than n clamps.
	clusters, err := KMeans(a, ids[:2], Config{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range clusters {
		total += len(c.Docs)
	}
	if total != 2 {
		t.Fatalf("members lost: %d", total)
	}
	// Default K heuristic.
	clusters, err = KMeans(a, ids, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) == 0 {
		t.Fatal("no clusters with default K")
	}
}

func TestPurity(t *testing.T) {
	labels := map[corpus.PaperID]string{0: "a", 1: "a", 2: "b", 3: "b"}
	perfect := [][]corpus.PaperID{{0, 1}, {2, 3}}
	if p := Purity(perfect, labels); p != 1 {
		t.Fatalf("perfect purity = %v", p)
	}
	mixed := [][]corpus.PaperID{{0, 2}, {1, 3}}
	if p := Purity(mixed, labels); p != 0.5 {
		t.Fatalf("mixed purity = %v", p)
	}
	if p := Purity(nil, labels); p != 0 {
		t.Fatalf("empty purity = %v", p)
	}
	// Unlabelled docs are skipped.
	if p := Purity([][]corpus.PaperID{{0, 99}}, labels); p != 1 {
		t.Fatalf("unlabelled skip purity = %v", p)
	}
}

// clusteredSearchResults is an integration check on generated data: cluster
// the results of a context query and ensure purity against primary topics
// is computable and sane.
func TestClusterGeneratedResults(t *testing.T) {
	o, err := ontology.Generate(ontology.GenConfig{Seed: 6, NumTerms: 60, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	ids := make([]corpus.PaperID, c.Len())
	labels := map[corpus.PaperID]string{}
	for i, p := range c.Papers() {
		ids[i] = p.ID
		labels[p.ID] = string(p.Topics[0])
	}
	clusters, err := KMeans(a, ids, Config{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	var groups [][]corpus.PaperID
	for _, cl := range clusters {
		groups = append(groups, cl.Docs)
	}
	p := Purity(groups, labels)
	if p <= 0 || p > 1 {
		t.Fatalf("purity = %v", p)
	}
}
