package ontology

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

// diamond builds the classic DAG:
//
//	  root
//	 /    \
//	a      b
//	 \    /
//	  c
//	  |
//	  d
func diamond(t *testing.T) *Ontology {
	t.Helper()
	o := New()
	add := func(id, name string, parents ...TermID) {
		t.Helper()
		if err := o.Add(Term{ID: TermID(id), Name: name, Parents: parents}); err != nil {
			t.Fatal(err)
		}
	}
	add("GO:1", "root")
	add("GO:2", "a", "GO:1")
	add("GO:3", "b", "GO:1")
	add("GO:4", "c", "GO:2", "GO:3")
	add("GO:5", "d", "GO:4")
	if err := o.Build(); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestBuildBasics(t *testing.T) {
	o := diamond(t)
	if o.Len() != 5 {
		t.Fatalf("Len = %d", o.Len())
	}
	if got := o.Roots(); !reflect.DeepEqual(got, []TermID{"GO:1"}) {
		t.Fatalf("Roots = %v", got)
	}
	if o.Term("GO:4").Name != "c" {
		t.Fatal("Term lookup failed")
	}
	if o.Term("GO:99") != nil {
		t.Fatal("unknown term should be nil")
	}
}

func TestLevels(t *testing.T) {
	o := diamond(t)
	want := map[TermID]int{"GO:1": 1, "GO:2": 2, "GO:3": 2, "GO:4": 3, "GO:5": 4}
	for id, l := range want {
		if got := o.Level(id); got != l {
			t.Errorf("Level(%s) = %d, want %d", id, got, l)
		}
	}
	if o.MaxLevel() != 4 {
		t.Errorf("MaxLevel = %d", o.MaxLevel())
	}
	if got := o.TermsAtLevel(2); !reflect.DeepEqual(got, []TermID{"GO:2", "GO:3"}) {
		t.Errorf("TermsAtLevel(2) = %v", got)
	}
}

func TestDescendantsNoDoubleCount(t *testing.T) {
	o := diamond(t)
	// c is reachable from root via both a and b but must count once.
	if got := o.descCount["GO:1"]; got != 4 {
		t.Errorf("descCount[root] = %d, want 4", got)
	}
	if got := o.Descendants("GO:1"); !reflect.DeepEqual(got, []TermID{"GO:2", "GO:3", "GO:4", "GO:5"}) {
		t.Errorf("Descendants(root) = %v", got)
	}
	if got := o.descCount["GO:5"]; got != 0 {
		t.Errorf("leaf descCount = %d", got)
	}
}

func TestAncestors(t *testing.T) {
	o := diamond(t)
	if got := o.Ancestors("GO:4"); !reflect.DeepEqual(got, []TermID{"GO:1", "GO:2", "GO:3"}) {
		t.Errorf("Ancestors(c) = %v", got)
	}
	if !slices.Contains(o.Ancestors("GO:5"), "GO:1") {
		t.Error("root must be ancestor of d")
	}
	if slices.Contains(o.Ancestors("GO:1"), "GO:5") {
		t.Error("d is not an ancestor of root")
	}
	if slices.Contains(o.Ancestors("GO:3"), "GO:2") {
		t.Error("siblings are not ancestors")
	}
}

func TestInformationContent(t *testing.T) {
	o := diamond(t)
	// root: (4+1)/5 = 1 → I = 0; leaf: 1/5 → I = log 5.
	if got := o.InformationContent("GO:1"); got != 0 {
		t.Errorf("I(root) = %v", got)
	}
	if got := o.InformationContent("GO:5"); math.Abs(got-math.Log(5)) > 1e-12 {
		t.Errorf("I(leaf) = %v", got)
	}
	// Information content must be monotone non-increasing toward the root.
	if !(o.InformationContent("GO:5") >= o.InformationContent("GO:4")) ||
		!(o.InformationContent("GO:4") >= o.InformationContent("GO:1")) {
		t.Error("information content must grow with depth")
	}
	if o.InformationContent("GO:99") != 0 {
		t.Error("unknown term must have I = 0")
	}
}

func TestRateOfDecay(t *testing.T) {
	o := diamond(t)
	d := o.RateOfDecay("GO:4", "GO:5")
	if !(d > 0 && d <= 1) {
		t.Errorf("RateOfDecay = %v, want in (0,1]", d)
	}
	// Root has I = 0 → degenerate case returns 1.
	if got := o.RateOfDecay("GO:1", "GO:5"); got != 1 {
		t.Errorf("degenerate decay = %v", got)
	}
}

func TestAddErrors(t *testing.T) {
	o := New()
	if err := o.Add(Term{ID: "", Name: "x"}); err == nil {
		t.Error("empty ID must fail")
	}
	if err := o.Add(Term{ID: "GO:1", Name: ""}); err == nil {
		t.Error("empty name must fail")
	}
	if err := o.Add(Term{ID: "GO:1", Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Add(Term{ID: "GO:1", Name: "y"}); err == nil {
		t.Error("duplicate ID must fail")
	}
}

func TestBuildErrors(t *testing.T) {
	// Dangling parent.
	o := New()
	_ = o.Add(Term{ID: "GO:1", Name: "x", Parents: []TermID{"GO:404"}})
	if err := o.Build(); err == nil {
		t.Error("dangling parent must fail Build")
	}
	// Cycle (a→b→a) has no root.
	o = New()
	_ = o.Add(Term{ID: "GO:1", Name: "a", Parents: []TermID{"GO:2"}})
	_ = o.Add(Term{ID: "GO:2", Name: "b", Parents: []TermID{"GO:1"}})
	if err := o.Build(); err == nil {
		t.Error("cyclic ontology must fail Build")
	}
	// Cycle off to the side of a valid root.
	o = New()
	_ = o.Add(Term{ID: "GO:1", Name: "root"})
	_ = o.Add(Term{ID: "GO:2", Name: "a", Parents: []TermID{"GO:3"}})
	_ = o.Add(Term{ID: "GO:3", Name: "b", Parents: []TermID{"GO:2"}})
	if err := o.Build(); err == nil {
		t.Error("side cycle must fail Build")
	}
	// Double Build.
	o = New()
	_ = o.Add(Term{ID: "GO:1", Name: "root"})
	if err := o.Build(); err != nil {
		t.Fatal(err)
	}
	if err := o.Build(); err == nil {
		t.Error("second Build must fail")
	}
	if err := o.Add(Term{ID: "GO:2", Name: "late"}); err == nil {
		t.Error("Add after Build must fail")
	}
}

func TestAddCopiesParents(t *testing.T) {
	o := New()
	parents := []TermID{}
	_ = o.Add(Term{ID: "GO:1", Name: "root", Parents: parents})
	parents = append(parents, "GO:mutated")
	_ = parents
	if err := o.Build(); err != nil {
		t.Fatalf("caller mutation leaked into the ontology: %v", err)
	}
}
