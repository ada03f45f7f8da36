package corpus

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
)

// TestWriteJSONL checks the export is one object per paper, in ID order,
// carrying the fields external tooling reads under their documented names.
func TestWriteJSONL(t *testing.T) {
	c, _ := testCorpus(t, 60)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, c); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	n := 0
	for ; sc.Scan(); n++ {
		var jp jsonPaper
		if err := json.Unmarshal(sc.Bytes(), &jp); err != nil {
			t.Fatalf("line %d: %v", n+1, err)
		}
		p := c.Paper(PaperID(n))
		if jp.ID != n || jp.PMID != p.PMID || jp.Title != p.Title || jp.Body != p.Body ||
			len(jp.References) != len(p.References) || len(jp.Topics) != len(p.Topics) || jp.Evidence != p.Evidence {
			t.Fatalf("line %d does not describe paper %d: %+v", n+1, n, jp)
		}
	}
	if n != c.Len() {
		t.Fatalf("lines = %d, want %d", n, c.Len())
	}
}
