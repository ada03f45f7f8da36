package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSingleFigure(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-papers", "120", "-terms", "40", "-queries", "6", "-quiet", "fig5.4"}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig 5.4a") || !strings.Contains(out.String(), "Fig 5.4b") {
		t.Fatalf("missing figure output:\n%s", out.String())
	}
}

func TestRunMultipleFigures(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-papers", "120", "-terms", "40", "-queries", "6", "-quiet",
		"ablate-teleport", "ablate-hits"}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Ablation A1") || !strings.Contains(out.String(), "Ablation A2") {
		t.Fatalf("missing ablations:\n%s", out.String())
	}
	// Output order follows the canonical order, not the argument order.
	if strings.Index(out.String(), "A1") > strings.Index(out.String(), "A2") {
		t.Fatal("canonical ordering violated")
	}
}

// TestRunUnknownFigure: a bad name fails before the setup is built, so no
// progress line reaches errw. "scaling" is a figure name only on its own.
func TestRunUnknownFigure(t *testing.T) {
	for _, args := range [][]string{{"fig9.9"}, {"fig5.1", "fig9.9"}, {"scaling", "fig5.1"}} {
		var out, errw bytes.Buffer
		if err := run(args, &out, &errw); err == nil {
			t.Fatalf("%v must fail", args)
		}
		if strings.Contains(errw.String(), "generating system") {
			t.Fatalf("%v built the setup before failing: %q", args, errw.String())
		}
	}
}

func TestProgressGoesToErrWriter(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-papers", "120", "-terms", "40", "-queries", "5", "sparseness"}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw.String(), "generating system") {
		t.Fatal("progress lines missing from err writer")
	}
	if strings.Contains(out.String(), "generating system") {
		t.Fatal("progress leaked into stdout")
	}
}
