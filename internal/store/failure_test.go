package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ctxsearch/internal/ontology"
)

// openAndBind is the whole road from a file to servable state: a path-based
// Open, then every component materialized. The mapping stays open until the
// test ends: the returned state aliases it.
func openAndBind(t *testing.T, o *ontology.Ontology, img []byte) (*State, error) {
	t.Helper()
	m, err := Open(writeFile(t, img), o)
	if err != nil {
		return nil, err
	}
	t.Cleanup(func() { m.Close() })
	return materialize(m)
}

// TestTruncatedStreams injects truncation at many byte offsets: the file
// must be refused, never panic or silently serve partial state.
func TestTruncatedStreams(t *testing.T) {
	o, st := fixture(t)
	full := v5Bytes(t, st)
	offsets := []int{0, 1, 7, 8, headerSize - 1, 64, len(full) / 4, len(full) / 2, len(full) - 1}
	for _, off := range offsets {
		if _, err := openAndBind(t, o, full[:off]); err == nil {
			t.Fatalf("truncation at %d bytes opened successfully", off)
		}
	}
}

// TestWrongMagic: a structurally valid container that is not a ctxsearch
// state must be rejected as foreign, with its size.
func TestWrongMagic(t *testing.T) {
	o, st := fixture(t)
	img := v5Bytes(t, st)
	copy(img, "NOTSTATE")
	_, err := openAndBind(t, o, img)
	if err == nil {
		t.Fatal("wrong magic opened successfully")
	}
	if !strings.Contains(err.Error(), "not a ctxsearch state file") {
		t.Fatalf("error does not call the file foreign: %v", err)
	}
}

// TestTruncationDiagnostics: errors from cut-off files must say the file
// is truncated, and where, so operators can tell a partial copy from the
// wrong file.
func TestTruncationDiagnostics(t *testing.T) {
	o, st := fixture(t)
	full := v5Bytes(t, st)
	tableEnd := headerSize + len(sectionIDs(full))*secHdrSize
	for _, tc := range []struct {
		name string
		cut  int
		want string
	}{
		{"mid-header", headerSize / 2, "truncated header"},
		{"mid-table", headerSize + (tableEnd-headerSize)/2, "truncated section table"},
		{"mid-payload", tableEnd + (len(full)-tableEnd)/2, "truncated?"},
	} {
		_, err := openAndBind(t, o, full[:tc.cut])
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s cut not reported as %q: %v", tc.name, tc.want, err)
		}
	}
}

// TestSaveFileAtomic: SaveFile must leave exactly the named file behind — a
// loadable state with no stray temp files — including when it replaces an
// existing (possibly corrupt) state.
func TestSaveFileAtomic(t *testing.T) {
	o, st := fixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	// Pre-existing garbage at the target simulates an earlier bad write.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(path, st); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path, o)
	if err != nil {
		t.Fatalf("state written by SaveFile does not open: %v", err)
	}
	m.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "state.bin" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("stray files after SaveFile: %v", names)
	}
	// A failing save (unwritable directory) must not leave temp droppings.
	if err := SaveFile(filepath.Join(dir, "missing", "state.bin"), st); err == nil {
		t.Fatal("save into missing directory must fail")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("failed save left %d entries", len(entries))
	}
}

// TestBitFlips corrupts single bytes at a stride across the whole file,
// padding and reserved fields included: the open must either refuse the
// file or — where the flipped byte is one the reader never dereferences —
// bind state equal to what was saved. Nothing in between is served.
func TestBitFlips(t *testing.T) {
	o, st := fixture(t)
	full := v5Bytes(t, st)
	step := len(full)/23 + 1
	for off := 0; off < len(full); off += step {
		corrupted := append([]byte(nil), full...)
		corrupted[off] ^= 0xFF
		got, err := openAndBind(t, o, corrupted)
		if err != nil {
			continue // rejected: fine
		}
		assertSameContextSet(t, st.ContextSet, got.ContextSet)
		assertSameMatrices(t, st, got.Matrices)
	}
}
