// Realdata walks the bring-your-own-data path a downstream adopter follows:
// export a corpus to the standard interchange formats (OBO for the
// ontology, GAF for annotation evidence, gob for the papers), then rebuild
// the whole system purely from those files — the way one would load real
// Gene Ontology releases and GO-annotation files — and run a search.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"ctxsearch"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
)

func main() {
	dir, err := os.MkdirTemp("", "ctxsearch-realdata-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	oboPath := filepath.Join(dir, "ontology.obo")
	gafPath := filepath.Join(dir, "annotations.gaf")
	corpusPath := filepath.Join(dir, "papers.gob")

	// Phase 1: produce the interchange files (stand-ins for a real GO
	// release, a real GAF file, and a parsed paper dump).
	fmt.Println("phase 1: exporting interchange files…")
	onto, err := ontology.Generate(ontology.GenConfig{Seed: 21, NumTerms: 120, MaxDepth: 8, SecondParentProb: 0.12})
	if err != nil {
		log.Fatal(err)
	}
	gen, err := corpus.Generate(onto, corpus.DefaultGenConfig(500))
	if err != nil {
		log.Fatal(err)
	}
	writeFile(oboPath, func(f *os.File) error { return onto.WriteOBO(f) })
	writeFile(gafPath, func(f *os.File) error { return corpus.WriteGAF(f, gen) })
	if err := gen.SaveFile(corpusPath); err != nil {
		log.Fatal(err)
	}
	for _, p := range []string{oboPath, gafPath, corpusPath} {
		st, _ := os.Stat(p)
		fmt.Printf("  %s (%d bytes)\n", filepath.Base(p), st.Size())
	}

	// Phase 2: rebuild everything from the files alone.
	fmt.Println("\nphase 2: loading from files…")
	oboFile, err := os.Open(oboPath)
	if err != nil {
		log.Fatal(err)
	}
	loadedOnto, err := ontology.ParseOBO(oboFile)
	oboFile.Close()
	if err != nil {
		log.Fatal(err)
	}
	loadedCorpus, err := corpus.LoadFile(corpusPath)
	if err != nil {
		log.Fatal(err)
	}
	// Strip the corpus's own evidence marks and reapply them from the GAF
	// file, as one would with real GO annotations.
	papers := make([]*corpus.Paper, loadedCorpus.Len())
	for i, p := range loadedCorpus.Papers() {
		cp := *p
		cp.Evidence = false
		papers[i] = &cp
	}
	gafFile, err := os.Open(gafPath)
	if err != nil {
		log.Fatal(err)
	}
	annots, err := corpus.ParseGAF(gafFile)
	gafFile.Close()
	if err != nil {
		log.Fatal(err)
	}
	applied, unmatched := corpus.ApplyAnnotations(papers, annots)
	fmt.Printf("  ontology: %d terms · corpus: %d papers · GAF: %d annotations applied, %d unmatched\n",
		loadedOnto.Len(), len(papers), applied, len(unmatched))
	rebuilt, err := corpus.NewCorpus(papers)
	if err != nil {
		log.Fatal(err)
	}

	// Phase 3: the normal pipeline over the loaded data.
	fmt.Println("\nphase 3: context-based search over the loaded data…")
	cfg := ctxsearch.DefaultConfig()
	sys, err := ctxsearch.NewSystem(loadedOnto, rebuilt, cfg)
	if err != nil {
		log.Fatal(err)
	}
	cs := sys.BuildTextContextSet()
	scores := sys.ScoreText(cs)
	engine := sys.Engine(scores)
	query := loadedOnto.Term(scores.Contexts()[0]).Name
	fmt.Printf("  query: %q\n", query)
	for i, r := range engine.Search(query, ctxsearch.SearchOptions{Limit: 3}) {
		p := sys.Corpus.Paper(r.Doc)
		fmt.Printf("  %d. [%.3f] PMID %d %.60s…\n", i+1, r.Relevancy, p.PMID, p.Title)
	}
}

func writeFile(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := fn(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}
