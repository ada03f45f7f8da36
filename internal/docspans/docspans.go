// Package docspans reads the code spans of a Markdown document: the one
// reader behind the checks that hold the docs to the code (the CLI's flags,
// the module's Go names and the constants a checked table restates). Only
// tests import it.
package docspans

import "strings"

// Span is one code span of a Markdown text and the line it starts on.
type Span struct {
	Text string
	Line int
}

// CodeSpans returns the code spans of a Markdown text: a run of n backticks
// opens one and the next run of exactly n backticks in the same paragraph
// closes it; a run that nothing closes is literal. Fenced code blocks hold no
// spans.
func CodeSpans(text string) []Span {
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
	var spans []Span
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
		spans = append(spans, Span{Text: body[:closed], Line: 1 + strings.Count(text[:i], "\n")})
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
