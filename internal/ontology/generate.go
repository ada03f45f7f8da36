package ontology

import (
	"fmt"
	"math/rand"
	"strings"
)

// GenConfig configures the synthetic GO-like ontology generator.
type GenConfig struct {
	// Seed makes generation deterministic.
	Seed int64
	// NumTerms is the total number of terms including the three roots.
	NumTerms int
	// MaxDepth is the deepest level to generate (root = level 1). The
	// paper's experiments slice results at levels 3, 5 and 7, so MaxDepth
	// should be at least 8.
	MaxDepth int
	// SecondParentProb is the probability a non-root term gets a second
	// is-a parent, making the structure a true DAG like GO.
	SecondParentProb float64
}

// DefaultGenConfig returns the default generator configuration: a
// 600-term, depth-9 DAG. The synthetic system and the CLI start from it and
// set Seed, NumTerms and MaxDepth, so SecondParentProb is fixed here.
func DefaultGenConfig() GenConfig {
	return GenConfig{Seed: 1, NumTerms: 600, MaxDepth: 9, SecondParentProb: 0.12}
}

// Vocabulary used to compose GO-style term names. Heads are process/function
// nouns; entities are biological objects; modifiers specialise a parent term
// the way real GO children do ("general X", "nonspecific X", …, the paper's
// §5.2 example).
var (
	genHeads = []string{
		"activity", "binding", "transport", "biosynthesis", "catabolism",
		"assembly", "repair", "replication", "transcription", "translation",
		"folding", "localization", "secretion", "phosphorylation",
		"methylation", "signaling", "elongation", "initiation", "splicing",
		"degradation", "maturation", "remodeling", "condensation",
	}
	genEntities = []string{
		"rna polymerase ii", "dna", "protein kinase", "membrane",
		"chromatin", "histone", "ribosome", "mitochondrion", "receptor",
		"ion channel", "ubiquitin", "helicase", "cytoskeleton", "telomere",
		"nucleotide", "lipid", "calcium", "zinc finger", "transcription factor",
		"messenger rna", "transfer rna", "proteasome", "spliceosome",
		"nucleosome", "kinetochore", "centromere", "microtubule", "actin",
		"glucose", "amino acid", "peptide", "growth factor", "cyclin",
	}
	genModifiers = []string{
		"general", "specific", "nonspecific", "positive", "negative",
		"nuclear", "cytoplasmic", "mitochondrial", "membrane-bound",
		"atp-dependent", "calcium-dependent", "ligand-activated",
		"stress-induced", "early", "late", "constitutive", "inducible",
		"basal", "enhancer-dependent", "sequence-specific",
	}
)

// Generate builds a deterministic synthetic ontology. The three roots mirror
// GO's namespaces; every other term's name is derived from its parent's name
// so that term-word specialisation deepens down the hierarchy, which is what
// the pattern-based score function exploits.
func Generate(cfg GenConfig) (*Ontology, error) {
	if cfg.NumTerms < 3 {
		return nil, fmt.Errorf("ontology: NumTerms must be ≥ 3, got %d", cfg.NumTerms)
	}
	if cfg.MaxDepth < 2 {
		return nil, fmt.Errorf("ontology: MaxDepth must be ≥ 2, got %d", cfg.MaxDepth)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	o := New()

	id := func(n int) TermID { return TermID(fmt.Sprintf("GO:%07d", n)) }
	type node struct {
		id    TermID
		name  string
		ns    string
		level int
	}
	roots := []node{
		{id(1), "biological process", "biological_process", 1},
		{id(2), "molecular function", "molecular_function", 1},
		{id(3), "cellular component", "cellular_component", 1},
	}
	byLevel := map[int][]node{}
	seenNames := map[string]bool{}
	for _, r := range roots {
		if err := o.Add(Term{ID: r.id, Name: r.name, Namespace: r.ns}); err != nil {
			return nil, err
		}
		byLevel[1] = append(byLevel[1], r)
		seenNames[r.name] = true
	}

	// deriveName builds a child name from the parent's, keeping names ≤ 9
	// words and globally unique.
	deriveName := func(parent node) string {
		base := parent.name
		if parent.level == 1 {
			// Children of a root get fresh "<entity> <head>" phrases.
			base = genEntities[rng.Intn(len(genEntities))] + " " + genHeads[rng.Intn(len(genHeads))]
		}
		for attempt := 0; attempt < 40; attempt++ {
			var name string
			switch rng.Intn(4) {
			case 0:
				name = genModifiers[rng.Intn(len(genModifiers))] + " " + base
			case 1:
				name = genEntities[rng.Intn(len(genEntities))] + " " + base
			case 2:
				name = "regulation of " + base
			default:
				name = base + " " + genHeads[rng.Intn(len(genHeads))]
			}
			if len(strings.Fields(name)) > 9 {
				// Too long: specialise with a single modifier instead.
				name = genModifiers[rng.Intn(len(genModifiers))] + " " + strings.Join(strings.Fields(base)[:7], " ")
			}
			if !seenNames[name] {
				seenNames[name] = true
				return name
			}
		}
		// Fall back to a numbered variant; guaranteed unique.
		name := fmt.Sprintf("%s variant %d", base, len(seenNames))
		seenNames[name] = true
		return name
	}

	for n := 4; n <= cfg.NumTerms; n++ {
		// Target a level in [2, MaxDepth] so every level the experiments
		// slice on is populated; pick a parent one level up.
		target := 2 + rng.Intn(cfg.MaxDepth-1)
		var cands []node
		for l := target - 1; l >= 1; l-- {
			if len(byLevel[l]) > 0 {
				cands = byLevel[l]
				break
			}
		}
		parent := cands[rng.Intn(len(cands))]
		t := Term{
			ID:        id(n),
			Name:      deriveName(parent),
			Namespace: parent.ns,
			Parents:   []TermID{parent.id},
		}
		// Optional second parent from the same level as the first, same
		// namespace; edges always point old→new so acyclicity holds by
		// construction.
		if rng.Float64() < cfg.SecondParentProb {
			pool := byLevel[parent.level]
			if len(pool) > 1 {
				p2 := pool[rng.Intn(len(pool))]
				if p2.id != parent.id {
					t.Parents = append(t.Parents, p2.id)
				}
			}
		}
		if err := o.Add(t); err != nil {
			return nil, err
		}
		child := node{t.ID, t.Name, t.Namespace, parent.level + 1}
		byLevel[child.level] = append(byLevel[child.level], child)
	}
	if err := o.Build(); err != nil {
		return nil, err
	}
	return o, nil
}
