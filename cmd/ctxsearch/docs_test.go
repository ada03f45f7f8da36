package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
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
		for _, sp := range codeSpans(string(text)) {
			for _, name := range spanFlags(sp.text) {
				if fs.Lookup(name) == nil && goTestFlags[name] == "" {
					t.Errorf("%s:%d: `%s` names -%s, which is neither a ctxsearch nor a go test flag", doc, sp.line, sp.text, name)
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
		for _, sp := range codeSpans(tc.text) {
			got = append(got, spanFlags(sp.text)...)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%q: flags %q, want %q", tc.text, got, tc.want)
		}
	}
	if sp := codeSpans("one\n\ntwo `-x`"); len(sp) != 1 || sp[0].line != 3 {
		t.Errorf("span lines: %+v, want one on line 3", sp)
	}
}

// span is one code span of a Markdown text and the line it starts on.
type span struct {
	text string
	line int
}

// codeSpans returns the code spans of a Markdown text: a run of n backticks
// opens one and the next run of exactly n backticks in the same paragraph
// closes it; a run that nothing closes is literal. Fenced code blocks hold no
// spans.
func codeSpans(text string) []span {
	lines := strings.Split(text, "\n")
	fenced := false
	for i, l := range lines {
		fence := strings.HasPrefix(strings.TrimSpace(l), "```")
		if fence || fenced {
			lines[i] = ""
		}
		if fence {
			fenced = !fenced
		}
	}
	text = strings.Join(lines, "\n")
	var spans []span
	for i := 0; i < len(text); {
		if text[i] != '`' {
			i++
			continue
		}
		open := backticks(text[i:])
		body := text[i+open:]
		if end := strings.Index(body, "\n\n"); end >= 0 {
			body = body[:end]
		}
		closed := -1
		for j := 0; j < len(body) && closed < 0; {
			switch n := backticks(body[j:]); {
			case n == 0:
				j++
			case n == open:
				closed = j
			default:
				j += n
			}
		}
		if closed < 0 {
			i += open
			continue
		}
		spans = append(spans, span{text: body[:closed], line: 1 + strings.Count(text[:i], "\n")})
		i += 2*open + closed
	}
	return spans
}

// backticks is the length of the run of backticks s starts with.
func backticks(s string) int {
	n := 0
	for n < len(s) && s[n] == '`' {
		n++
	}
	return n
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
