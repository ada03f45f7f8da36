package corpus

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// jsonPaper is the JSONL interchange shape of a paper — stable field names
// decoupled from the internal struct so external tooling can rely on them.
type jsonPaper struct {
	ID         int      `json:"id"`
	PMID       int      `json:"pmid"`
	Year       int      `json:"year"`
	Title      string   `json:"title"`
	Abstract   string   `json:"abstract"`
	Body       string   `json:"body"`
	IndexTerms []string `json:"index_terms,omitempty"`
	Authors    []string `json:"authors,omitempty"`
	References []int    `json:"references,omitempty"`
	Topics     []string `json:"topics,omitempty"`
	Evidence   bool     `json:"evidence,omitempty"`
}

// WriteJSONL writes the corpus as JSON Lines (one paper object per line) —
// the standard bulk-interchange format for document collections.
func WriteJSONL(w io.Writer, c *Corpus) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, p := range c.Papers() {
		jp := jsonPaper{
			ID:         int(p.ID),
			PMID:       p.PMID,
			Year:       p.Year,
			Title:      p.Title,
			Abstract:   p.Abstract,
			Body:       p.Body,
			IndexTerms: p.IndexTerms,
			Authors:    p.Authors,
			Evidence:   p.Evidence,
		}
		for _, r := range p.References {
			jp.References = append(jp.References, int(r))
		}
		for _, t := range p.Topics {
			jp.Topics = append(jp.Topics, string(t))
		}
		if err := enc.Encode(jp); err != nil {
			return fmt.Errorf("corpus: encoding paper %d: %w", p.ID, err)
		}
	}
	return bw.Flush()
}
