// Package corpus implements the literature-database substrate: the paper
// model (full text in sections, authors, references), a deterministic
// synthetic PubMed-like corpus generator anchored on ontology topics, a
// feature analyzer producing the per-section term statistics every ranking
// function consumes, and gob persistence.
//
// The paper's experiments used 72,027 full-text PubMed genomics papers; the
// generator reproduces the statistical structure those experiments depend on
// (topical vocabulary anchored at GO terms, author communities, citations
// biased within topics, per-term annotation evidence papers) at configurable
// scale, with ground-truth topic labels the real corpus lacks.
package corpus

import (
	"fmt"
	"sort"
	"strings"

	"ctxsearch/internal/ontology"
)

// PaperID identifies a paper within a corpus. IDs are dense, starting at 0.
type PaperID int

// Section identifies a paper section. The text-based prestige function
// weights similarities per section; the pattern matcher weights match
// strength per section.
type Section int

// Paper sections in presentation order.
const (
	SecTitle Section = iota
	SecAbstract
	SecBody
	SecIndexTerms
	numSections
)

// NumSections is the number of paper sections, for fixed-size per-section
// arrays indexed by Section.
const NumSections = int(numSections)

// Sections lists all text sections in a fixed order.
var Sections = []Section{SecTitle, SecAbstract, SecBody, SecIndexTerms}

// String returns the section name.
func (s Section) String() string {
	switch s {
	case SecTitle:
		return "title"
	case SecAbstract:
		return "abstract"
	case SecBody:
		return "body"
	case SecIndexTerms:
		return "index_terms"
	default:
		return fmt.Sprintf("section(%d)", int(s))
	}
}

// Paper is one full-text publication.
type Paper struct {
	ID         PaperID
	PMID       int // PubMed-style external identifier
	Year       int
	Title      string
	Abstract   string
	Body       string
	IndexTerms []string
	Authors    []string
	// References holds outgoing citations, always to older papers.
	References []PaperID

	// Topics is the ground-truth list of generating ontology terms, primary
	// first. Real corpora lack these labels; the evaluation harness uses
	// them to validate the AC-answer-set construction.
	Topics []ontology.TermID
	// Evidence marks the paper as an annotation evidence (training) paper
	// for its primary topic — the synthetic counterpart of GO annotation
	// evidence.
	Evidence bool
}

// SectionText returns the raw text of a section; index terms are joined
// with "; ".
func (p *Paper) SectionText(s Section) string {
	switch s {
	case SecTitle:
		return p.Title
	case SecAbstract:
		return p.Abstract
	case SecBody:
		return p.Body
	case SecIndexTerms:
		return strings.Join(p.IndexTerms, "; ")
	default:
		return ""
	}
}

// Corpus is an immutable collection of papers with citation and evidence
// indexes. Construct with NewCorpus.
type Corpus struct {
	papers   []*Paper
	citedBy  map[PaperID][]PaperID
	evidence map[ontology.TermID][]PaperID
}

// NewCorpus builds a corpus from papers, validating IDs and references and
// building the reverse-citation and evidence indexes. Papers must have dense
// IDs 0..n-1 in slice order.
func NewCorpus(papers []*Paper) (*Corpus, error) {
	c := &Corpus{
		papers:   papers,
		citedBy:  make(map[PaperID][]PaperID),
		evidence: make(map[ontology.TermID][]PaperID),
	}
	for i, p := range papers {
		if p == nil {
			return nil, fmt.Errorf("corpus: nil paper at %d", i)
		}
		if int(p.ID) != i {
			return nil, fmt.Errorf("corpus: paper at %d has ID %d (IDs must be dense)", i, p.ID)
		}
	}
	for _, p := range papers {
		for _, r := range p.References {
			if int(r) < 0 || int(r) >= len(papers) {
				return nil, fmt.Errorf("corpus: paper %d cites unknown paper %d", p.ID, r)
			}
			if r == p.ID {
				return nil, fmt.Errorf("corpus: paper %d cites itself", p.ID)
			}
			c.citedBy[r] = append(c.citedBy[r], p.ID)
		}
		if p.Evidence && len(p.Topics) > 0 {
			c.evidence[p.Topics[0]] = append(c.evidence[p.Topics[0]], p.ID)
		}
	}
	for _, ids := range c.citedBy {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	return c, nil
}

// Len returns the number of papers.
func (c *Corpus) Len() int { return len(c.papers) }

// Paper returns the paper with the given ID, or nil when out of range.
func (c *Corpus) Paper(id PaperID) *Paper {
	if int(id) < 0 || int(id) >= len(c.papers) {
		return nil
	}
	return c.papers[id]
}

// Papers returns the underlying paper slice; callers must not modify it.
func (c *Corpus) Papers() []*Paper { return c.papers }

// CitedBy returns the IDs of papers citing id.
func (c *Corpus) CitedBy(id PaperID) []PaperID { return c.citedBy[id] }

// EvidencePapers returns the annotation evidence (training) papers of a
// term, in ID order.
func (c *Corpus) EvidencePapers(t ontology.TermID) []PaperID { return c.evidence[t] }

// EvidenceTerms returns every term that has at least one evidence paper,
// sorted by ID.
func (c *Corpus) EvidenceTerms() []ontology.TermID {
	out := make([]ontology.TermID, 0, len(c.evidence))
	for t := range c.evidence {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CoAuthorIndex maps each normalised (ASCII-lowercased) author to the
// ascending IDs of the papers they appear on; used by Level-1 author
// overlap.
func (c *Corpus) CoAuthorIndex() map[string][]PaperID {
	idx := make(map[string][]PaperID)
	for _, p := range c.papers {
		for _, au := range p.Authors {
			au = normAuthor(au)
			if ids := idx[au]; len(ids) == 0 || ids[len(ids)-1] != p.ID {
				idx[au] = append(ids, p.ID)
			}
		}
	}
	return idx
}

func normAuthor(a string) string {
	out := make([]byte, 0, len(a))
	for i := 0; i < len(a); i++ {
		c := a[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out = append(out, c)
	}
	return string(out)
}
