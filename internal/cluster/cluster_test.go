package cluster

import (
	"reflect"
	"sort"
	"testing"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/vector"
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
	clusters, err := kmeans(a, ids, 2)
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
	c1, err := kmeans(a, ids, 3)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := kmeans(a, ids, 3)
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
	if _, err := KMeans(a, nil); err == nil {
		t.Fatal("empty input must fail")
	}
	// K larger than n clamps.
	clusters, err := kmeans(a, ids[:2], 10)
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
	clusters, err = KMeans(a, ids)
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
	clusters, err := kmeans(a, ids, 8)
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

// kmeansReference is KMeans on string-keyed vectors, the form it had before
// it clustered the analyzer's term-ID rows: whole-text vectors rebuilt from
// the tokenizer alone (vector.FromTerms weighted by the DF table), centroids
// by vector.Centroid, cosines by vector.CosineWithNorms and labels by
// Sparse.TopTerms. ids ascend, k is in [1, len(ids)].
func kmeansReference(a *corpus.Analyzer, ids []corpus.PaperID, k int) []Cluster {
	vecs := make([]vector.Sparse, len(ids))
	for i, id := range ids {
		tf := vector.New()
		for _, s := range corpus.Sections {
			tf.Add(vector.FromTerms(a.Tokenizer().Terms(a.Corpus().Paper(id).SectionText(s))))
		}
		vecs[i] = a.DF().Weight(tf)
	}
	centroids := make([]vector.Sparse, k)
	for c := range centroids {
		centroids[c] = vecs[c*len(ids)/k].Clone()
	}
	assign := make([]int, len(ids))
	for iter := 0; iter < 25; iter++ {
		changed := false
		for i := range ids {
			best, bestSim := 0, -1.0
			for c := range centroids {
				if sim := vector.CosineWithNorms(vecs[i], centroids[c], vecs[i].Norm(), centroids[c].Norm()); sim > bestSim {
					best, bestSim = c, sim
				}
			}
			if assign[i] != best {
				assign[i], changed = best, true
			}
		}
		if !changed && iter > 0 {
			break
		}
		groups := make([][]vector.Sparse, k)
		for i, c := range assign {
			groups[c] = append(groups[c], vecs[i])
		}
		for c := range centroids {
			if len(groups[c]) > 0 {
				centroids[c] = vector.Centroid(groups[c])
			}
		}
	}
	members := make([][]corpus.PaperID, k)
	for i, c := range assign {
		members[c] = append(members[c], ids[i])
	}
	var out []Cluster
	for c := range centroids {
		if len(members[c]) > 0 {
			out = append(out, Cluster{Label: centroids[c].TopTerms(3), Docs: members[c]})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if len(out[i].Docs) != len(out[j].Docs) {
			return len(out[i].Docs) > len(out[j].Docs)
		}
		return out[i].Docs[0] < out[j].Docs[0]
	})
	return out
}

// TestKMeansMatchesMapReference: clustering the term-ID rows assigns every
// document and labels every cluster exactly as the string-keyed form does.
func TestKMeansMatchesMapReference(t *testing.T) {
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
	for i := range ids {
		ids[i] = corpus.PaperID(i)
	}
	for _, k := range []int{1, 3, 8, 20} {
		got, err := kmeans(a, ids, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := kmeansReference(a, ids, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: clusters\n%v\nreference\n%v", k, got, want)
		}
	}
}
