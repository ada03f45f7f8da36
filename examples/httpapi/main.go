// Httpapi runs the context-based search system as an HTTP service and
// exercises it with a client — the deployment shape of a literature
// digital-library backend. It starts the JSON API on a local port, issues
// /stats, /contexts and /search requests, and prints the responses.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"time"

	"ctxsearch"
	"ctxsearch/internal/server"
)

func main() {
	cfg := ctxsearch.DefaultConfig()
	cfg.Papers = 600
	cfg.OntologyTerms = 120

	fmt.Println("building system…")
	sys, err := ctxsearch.NewSyntheticSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	cs := sys.BuildTextContextSet()
	scores := sys.ScoreText(cs)
	srv := server.New(sys, scores)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	go func() {
		if err := http.Serve(ln, srv); err != nil {
			log.Print(err)
		}
	}()
	fmt.Printf("serving on %s\n\n", base)

	client := &http.Client{Timeout: 10 * time.Second}
	get := func(path string) []byte {
		resp, err := client.Get(base + path)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			log.Fatal(err)
		}
		return body
	}

	// 1. Service statistics.
	var stats server.StatsResponse
	mustUnmarshal(get("/stats"), &stats)
	fmt.Printf("GET /stats → %d papers, %d terms, %d contexts (%s set)\n\n",
		stats.Papers, stats.OntologyTerms, stats.Contexts, stats.ContextSetKind)

	// 2. Pick a query from a scored context and ask which contexts match.
	query := sys.Ontology.Term(scores.Contexts()[0]).Name
	var ctxInfos []server.ContextInfo
	mustUnmarshal(get("/contexts?q="+url.QueryEscape(query)), &ctxInfos)
	fmt.Printf("GET /contexts?q=%q → %d contexts\n", query, len(ctxInfos))
	for i, ci := range ctxInfos {
		if i >= 3 {
			break
		}
		fmt.Printf("  [%.2f] %s %q (level %d, %d papers)\n", ci.Score, ci.Term, ci.Name, ci.Level, ci.Papers)
	}

	// 3. Search.
	var results server.SearchResponse
	mustUnmarshal(get("/search?limit=3&q="+url.QueryEscape(query)), &results)
	fmt.Printf("\nGET /search?q=%q → %d results\n", query, len(results.Results))
	for i, r := range results.Results {
		fmt.Printf("  %d. [%.3f] PMID %d %.55s…\n", i+1, r.Relevancy, r.PMID, r.Title)
		fmt.Printf("     %s\n", r.Snippet)
	}

	// 4. Fetch the top paper's detail.
	if len(results.Results) > 0 {
		var paper server.PaperResponse
		mustUnmarshal(get(fmt.Sprintf("/papers/%d", results.Results[0].PaperID)), &paper)
		fmt.Printf("\nGET /papers/%d → %d contexts, %d refs out, %d citations in\n",
			paper.PaperID, len(paper.Contexts), len(paper.References), len(paper.CitedBy))
	}
}

func mustUnmarshal(data []byte, v any) {
	if err := json.Unmarshal(data, v); err != nil {
		log.Fatalf("bad response %q: %v", data, err)
	}
}
