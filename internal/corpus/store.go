package corpus

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// storeVersion guards the on-disk format; bump on incompatible changes.
const storeVersion = 1

type storeHeader struct {
	Magic   string
	Version int
	Papers  int
}

// Save writes the corpus to w in a versioned gob format.
func (c *Corpus) Save(w io.Writer) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(storeHeader{Magic: "ctxsearch-corpus", Version: storeVersion, Papers: len(c.papers)}); err != nil {
		return fmt.Errorf("corpus: encoding header: %w", err)
	}
	for _, p := range c.papers {
		if err := enc.Encode(p); err != nil {
			return fmt.Errorf("corpus: encoding paper %d: %w", p.ID, err)
		}
	}
	return nil
}

// Load reads a corpus previously written by Save, rebuilding all indexes.
func Load(r io.Reader) (*Corpus, error) {
	dec := gob.NewDecoder(r)
	var h storeHeader
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("corpus: decoding header: %w", err)
	}
	if h.Magic != "ctxsearch-corpus" {
		return nil, fmt.Errorf("corpus: bad magic %q", h.Magic)
	}
	if h.Version != storeVersion {
		return nil, fmt.Errorf("corpus: unsupported store version %d (want %d)", h.Version, storeVersion)
	}
	if h.Papers < 0 {
		return nil, fmt.Errorf("corpus: header declares %d papers", h.Papers)
	}
	// Grown as papers decode, not sized by the header: a corrupt count
	// larger than the file ends in a decode error, not a huge allocation.
	var papers []*Paper
	for i := 0; i < h.Papers; i++ {
		var p Paper
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("corpus: decoding paper %d: %w", i, err)
		}
		papers = append(papers, &p)
	}
	return NewCorpus(papers)
}

// SaveFile writes the corpus to path, creating or truncating it.
func (c *Corpus) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := c.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a corpus from path.
func LoadFile(path string) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
