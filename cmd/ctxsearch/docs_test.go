package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ctxsearch/internal/docspans"
)

// goTestFlags are the flags the docs name that are go test's, not
// ctxsearch's, each with what the docs use it for.
var goTestFlags = map[string]string{
	"race":  "the race detector the CI gates run under",
	"short": "the sampled simulator and the skipped slow tests of make verify",
	"run":   "selecting one test or battery",
}

// TestDocsNameLiveFlags: every code span of the docs that starts with a flag
// names only flags of ctxsearch's flag set or of go test, so a deleted or
// renamed flag cannot live on in the docs.
func TestDocsNameLiveFlags(t *testing.T) {
	var o options
	fs := o.flags()
	// The verify skill's build-and-run notes live in a dot-directory at the
	// root; there must be exactly one.
	skill, err := filepath.Glob("../../.*/skills/verify/SKILL.md")
	if err != nil || len(skill) != 1 {
		t.Fatalf("verify skill notes: %q (%v), want one file", skill, err)
	}
	for _, doc := range append([]string{"../../README.md", "../../DESIGN.md"}, skill...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range docspans.CodeSpans(string(text)) {
			for _, name := range spanFlags(sp.Text) {
				if fs.Lookup(name) == nil && goTestFlags[name] == "" {
					t.Errorf("%s:%d: `%s` names -%s, which is neither a ctxsearch nor a go test flag", doc, sp.Line, sp.Text, name)
				}
			}
		}
	}
}

// TestCodeSpansAndFlags pins the Markdown reading the check relies on: a
// backtick that closes one span never opens another, fenced blocks and
// unclosed backticks hold no span, and a span names flags only when it starts
// with one.
func TestCodeSpansAndFlags(t *testing.T) {
	for _, tc := range []struct {
		text string
		want []string // the flags named, span by span
	}{
		{"serve with `-addr A -hedge-after=1s serve` or `-v`", []string{"addr", "hedge-after", "v"}},
		{"must be `cmp`-equal to `x`, the `contexts`-listing output", nil},
		{"``a `-b` c`` then `-d`", []string{"d"}},
		{"an unclosed `-gone\n\nthen `serve -addr A`", nil},
		{"```sh\nctxsearch `-gone` serve\n```\nthen `--state F`", []string{"state"}},
		{"`-1` and `- x` and `-`", nil},
	} {
		var got []string
		for _, sp := range docspans.CodeSpans(tc.text) {
			got = append(got, spanFlags(sp.Text)...)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%q: flags %q, want %q", tc.text, got, tc.want)
		}
	}
	if sp := docspans.CodeSpans("one\n\ntwo `-x`"); len(sp) != 1 || sp[0].Line != 3 {
		t.Errorf("span lines: %+v, want one on line 3", sp)
	}
}

// spanFlags returns the flag names a span starting with a flag names: each
// of its words that is one or two dashes and a letter onward, up to an
// "=value".
func spanFlags(text string) []string {
	words := strings.Fields(text)
	if len(words) == 0 || flagName(words[0]) == "" {
		return nil
	}
	var names []string
	for _, w := range words {
		if name := flagName(w); name != "" {
			names = append(names, name)
		}
	}
	return names
}

// flagName is the name word spells as a flag, or "" if it spells none.
func flagName(word string) string {
	name := strings.TrimPrefix(strings.TrimPrefix(word, "-"), "-")
	if name == word || name == "" || name[0] < 'a' || name[0] > 'z' {
		return ""
	}
	name, _, _ = strings.Cut(name, "=")
	return name
}
