package ctxsearch

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ctxsearch/internal/store"
)

// goldenStateSHA256 is the SHA-256 of the flat-v5 state file the text
// pipeline writes for smallConfig. It was recorded from the build that
// computed every paper × context cosine with vector.CosineWithNorms, so it
// pins both "the offline build is deterministic at any worker count" and
// "a faster build still writes the same bytes". A change that is meant to
// alter the file (format, weighting, generator) re-records it.
const goldenStateSHA256 = "b6208fc7cc7beab87a7f5fa2ad61d2ad1452b58d71115f67cbf86640bab8c07a"

func TestStateFileGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("float bits are pinned on amd64 only: other targets may fuse multiply-adds")
	}
	for _, workers := range []int{1, 3} {
		cfg := smallConfig()
		cfg.BuildWorkers = workers
		sys, err := NewSyntheticSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cs := sys.BuildTextContextSet()
		st := &store.State{
			ContextSet: cs,
			Matrices:   map[string]*Matrix{"text": sys.ScoreText(cs).Freeze()},
			Index:      sys.Index().Parts(),
			DF:         sys.Analyzer().DF(),
		}
		path := filepath.Join(t.TempDir(), "state.v5")
		if err := store.SaveFile(path, st); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != goldenStateSHA256 {
			t.Fatalf("workers=%d: state file (%d bytes) has SHA-256 %s, want %s", workers, len(data), got, goldenStateSHA256)
		}
	}
}
