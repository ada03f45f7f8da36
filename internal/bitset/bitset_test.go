package bitset

import "testing"

func TestAddContains(t *testing.T) {
	var s Set
	if s.Contains(0) || s.Contains(1000) || s.Contains(-1) {
		t.Fatal("empty set contains something")
	}
	for _, id := range []int{0, 1, 63, 64, 65, 500, 4096} {
		s.Add(id)
	}
	for _, id := range []int{0, 1, 63, 64, 65, 500, 4096} {
		if !s.Contains(id) {
			t.Errorf("Contains(%d) = false after Add", id)
		}
	}
	for _, id := range []int{2, 62, 66, 499, 501, 4095, 4097, 1 << 20, -5} {
		if s.Contains(id) {
			t.Errorf("Contains(%d) = true, never added", id)
		}
	}
}

func TestNewPreSized(t *testing.T) {
	s := New(130)
	if len(s) != 3 {
		t.Fatalf("New(130) has %d words, want 3", len(s))
	}
	if New(0) != nil || New(-1) != nil {
		t.Fatal("New(≤0) should be nil")
	}
	s.Add(129)
	if !s.Contains(129) {
		t.Fatal("pre-sized set lost a bit")
	}
}

func TestUnionWith(t *testing.T) {
	var a, b Set
	a.Add(3)
	a.Add(100)
	b.Add(3)
	b.Add(200)
	b.Add(700)
	a.UnionWith(b)
	for _, id := range []int{3, 100, 200, 700} {
		if !a.Contains(id) {
			t.Errorf("union missing %d", id)
		}
	}
	for _, id := range []int{0, 4, 99, 101, 199, 201, 699, 701} {
		if a.Contains(id) {
			t.Errorf("union holds %d, in neither operand", id)
		}
	}
	// Union with a shorter set must not shrink.
	var c Set
	c.Add(1)
	a.UnionWith(c)
	if !a.Contains(700) || !a.Contains(1) {
		t.Fatal("union with shorter set lost bits")
	}
}
