//go:build !race

// The checks type-check the module through exports_test.go's loader, which
// does not build under -race.

package ctxsearch

import (
	"fmt"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"
	"unicode/utf8"

	"ctxsearch/internal/docspans"
)

// docSizeCeiling caps the two docs that grew while the code shrank: a fact
// that needs more room than this belongs in the doc comment of the code it
// is about.
var docSizeCeiling = map[string]int{"README.md": 35000, "DESIGN.md": 40000}

// checkedDocs are the docs whose code spans must name live Go objects: the
// READMEs, DESIGN.md, EXPERIMENTS.md and the verify skill's notes, which
// live in a dot-directory at the root (there must be exactly one).
func checkedDocs(t *testing.T) []string {
	t.Helper()
	skill, err := filepath.Glob(".*/skills/verify/SKILL.md")
	if err != nil || len(skill) != 1 {
		t.Fatalf("verify skill notes: %q (%v), want one file", skill, err)
	}
	return append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, skill...)
}

// TestDocsSizeCeiling holds README.md and DESIGN.md under their ceilings.
func TestDocsSizeCeiling(t *testing.T) {
	for doc, ceiling := range docSizeCeiling {
		fi, err := os.Stat(doc)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > int64(ceiling) {
			t.Errorf("%s is %d bytes, over its ceiling of %d: point to the code instead of restating it", doc, fi.Size(), ceiling)
		}
	}
}

// TestDocsNameLiveGoNames: every code span of the docs that reads as a Go
// name — pkg.Name, Type.Method, a call, a mixedCaps identifier — resolves to
// an object, field or method of the module or the standard library it
// imports, and every Test, Benchmark or Fuzz name is a function of some
// _test.go file, so a deleted or renamed name cannot live on in the docs.
func TestDocsNameLiveGoNames(t *testing.T) {
	m := loadModule(t)
	for _, doc := range checkedDocs(t) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range docspans.CodeSpans(string(text)) {
			if err := m.checkName(sp.Text); err != nil {
				t.Errorf("%s:%d: %v", doc, sp.Line, err)
			}
		}
	}
}

// TestDocsCheckedTablesMatchConstants: every row of a table fenced by
// `<!-- checked: <package dir> -->` gives the value of the constant it
// names, so a doc cannot restate a value the code has changed.
func TestDocsCheckedTablesMatchConstants(t *testing.T) {
	m := loadModule(t)
	tables := 0
	for _, doc := range checkedDocs(t) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := checkedTables(string(text))
		if err != nil {
			t.Errorf("%s: %v", doc, err)
		}
		for _, r := range rows {
			if err := m.checkRow(r); err != nil {
				t.Errorf("%s:%d: %v", doc, r.line, err)
			}
		}
		tables += strings.Count(string(text), checkedMarker)
	}
	// The serving constants, the state format and the paper's settings.
	if tables < 3 {
		t.Errorf("%d checked tables in the docs, want at least 3", tables)
	}
}

// TestDocsCheckReader pins the reading the two checks rely on: which lines
// make a checked table, how a value and its unit are read, and which spans
// are Go names and whether they resolve.
func TestDocsCheckReader(t *testing.T) {
	m := loadModule(t)
	doc := "# T\n\n" +
		"| `queryTimeout` | 9 s |\n\n" + // no marker: not checked
		"<!-- checked: internal/server -->\n\n" +
		"| Constant | Value |\n| --- | --- |\n" +
		"| `queryTimeout` | 2 s |\n" +
		"| `probeInterval` | 500 ms | the prober's period |\n" +
		"| `maxInflight` | 64 |\n" +
		"| `MaxOffset` | 100 000 |\n" +
		"\nafter the table | `x` | 1 |\n" +
		"<!-- checked: internal/store -->\n" +
		"| Constant | Value |\n|---|---|\n| `magic` | `\"CTXSRCH4\"` |\n"
	rows, err := checkedTables(doc)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rows {
		got = append(got, fmt.Sprintf("%d %s.%s=%s", r.line, r.pkg, r.name, r.value))
		if err := m.checkRow(r); err != nil {
			t.Errorf("row %+v: %v", r, err)
		}
	}
	want := []string{
		"9 internal/server.queryTimeout=2 s", "10 internal/server.probeInterval=500 ms",
		"11 internal/server.maxInflight=64", "12 internal/server.MaxOffset=100 000",
		"18 internal/store.magic=`\"CTXSRCH4\"`",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("rows:\n%q\nwant\n%q", got, want)
	}
	for _, bad := range []string{
		"<!-- checked: internal/server -->\n\nno table\n",
		"<!-- checked: internal/server -->\n| A | B |\n| --- | --- |\n",
		"<!-- checked: internal/server -->\n| A | B |\n| --- | --- |\n| queryTimeout | 2 s |\n",
	} {
		if _, err := checkedTables(bad); err == nil {
			t.Errorf("checkedTables(%q) = nil error", bad)
		}
	}

	for _, tc := range []struct {
		pkg, name, value string
		ok               bool
	}{
		{"internal/server", "queryTimeout", "2000 ms", true},
		{"internal/server", "shardTimeout", "1 s", true},
		{"internal/server", "backoffBase", "20 ms", true},
		{"internal/server", "backoffBase", "20000 µs", true},
		{"internal/server", "backoffBase", "20000000 ns", true},
		{"internal/server", "idleTimeout", "2 min", true},
		{"internal/server", "retryBudget", "10", true},
		{"internal/server", "retryRatio", "0.1", true},
		{"internal/citegraph", "tol", "1e-9", true},
		{"internal/store", "Version", "8", true},
		{"internal/server", "queryTimeout", "1 s", false},         // a wrong value
		{"internal/server", "queryTimeout", "2", false},           // a duration without its unit
		{"internal/server", "maxInflight", "64 s", false},         // a unit on a count
		{"internal/server", "queryTimeout", "2 h", false},         // an unknown unit
		{"internal/server", "noSuchConstant", "1", false},         // an unknown constant
		{"internal/server", "Config", "1", false},                 // a type, not a constant
		{"internal/nosuch", "queryTimeout", "2 s", false},         // an unknown package
		{"internal/store", "magic", "CTXSRCH4", false},            // a string unquoted
		{"internal/store", "Version", `"8"`, false},               // a number quoted
		{"internal/contextset", "textThreshold", "0.36", false},   // a wrong float
		{"internal/contextset", "topContextsPerPaper", "2", true}, // an int
	} {
		err := m.checkRow(tableRow{pkg: tc.pkg, name: tc.name, value: tc.value})
		if (err == nil) != tc.ok {
			t.Errorf("%s.%s = %s: error %v, want ok %v", tc.pkg, tc.name, tc.value, err, tc.ok)
		}
	}

	for _, tc := range []struct {
		span string
		ok   bool
	}{
		{"search.Engine.SearchContext", true},
		{"search.Engine.Gone", false},
		{"search.NoSuchFunc", false},
		{"Engine.SearchContext", true},
		{"Engine.Gone", false},
		{"ctxsearch.Config.BuildWorkers", true},
		{"prestige.Matrix.ContextSet()", true},
		{"Tokens.IDs", true},
		{"store.Version", true},
		{"math.Float64bits", true},
		{"http.Server", true},
		{"atomic.Pointer", true},
		{"unsafe.Slice", true},
		{"renderPage(…)", true},
		{"NoSuchFunction(x)", false},
		{"float64(a*b) + c", true},
		{"max(Offset, 0) + Limit", true},
		{"EngineSearch", false},
		{"MergePages", true},
		{"TestDocsCheckReader", true},
		{"BenchmarkEngineSearchFull", true},
		{"TestNoSuchTest", false},
		{"search.merge_us", true},    // a metric name
		{"ctxsearch.go", true},       // a file
		{"Retry-After: 2", true},     // a header
		{"X-Page-Rows", true},        // a header
		{"GOMAXPROCS", true},         // no lower case
		{"cold_start_ms", true},      // a JSON key
		{"-shard-urls A,B", true},    // a flag, the flag check's
		{"ctxsearch build", true},    // a command
		{"Deprecated:", true},        // a marker
		{"ctx.Err()", false},         // a variable is no Go name the docs can keep live
		{"internal/server", true},    // a path
		{"search.Engine.fold", true}, // unexported methods resolve too
	} {
		err := m.checkName(tc.span)
		if (err == nil) != tc.ok {
			t.Errorf("`%s`: error %v, want ok %v", tc.span, err, tc.ok)
		}
	}
}

// checkedMarker opens the line that fences a checked table.
const checkedMarker = "<!-- checked: "

// tableRow is one row of a checked table: the constant it names in the
// package at module directory pkg, the value it gives and its line.
type tableRow struct {
	pkg, name, value string
	line             int
}

// checkedTables returns the rows of every table fenced by a
// `<!-- checked: <package dir> -->` line: the table that follows it, blank
// lines allowed between, with its header and delimiter rows skipped. A row's
// first cell is the constant as a code span and its second the value; any
// further cells are prose.
func checkedTables(text string) ([]tableRow, error) {
	lines := strings.Split(text, "\n")
	var rows []tableRow
	for i, l := range lines {
		l = strings.TrimSpace(l)
		if !strings.HasPrefix(l, checkedMarker) || !strings.HasSuffix(l, "-->") {
			continue
		}
		pkg := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(l, checkedMarker), "-->"))
		j := i + 1
		for j < len(lines) && strings.TrimSpace(lines[j]) == "" {
			j++
		}
		n := 0
		for ; j < len(lines) && strings.HasPrefix(strings.TrimSpace(lines[j]), "|"); j, n = j+1, n+1 {
			if n < 2 { // the header and delimiter rows
				continue
			}
			cells := strings.Split(strings.Trim(strings.TrimSpace(lines[j]), "|"), "|")
			name := strings.TrimSpace(cells[0])
			if len(cells) < 2 || len(name) < 3 || name[0] != '`' || name[len(name)-1] != '`' {
				return nil, fmt.Errorf("line %d: a checked row is | `constant` | value |", j+1)
			}
			rows = append(rows, tableRow{pkg: pkg, name: name[1 : len(name)-1], value: strings.TrimSpace(cells[1]), line: j + 1})
		}
		if n < 3 {
			return nil, fmt.Errorf("line %d: %s%s --> fences no table with a row", i+1, checkedMarker, pkg)
		}
	}
	return rows, nil
}

// durationUnits are the units a duration's value may be given in.
var durationUnits = map[string]time.Duration{
	"ns": time.Nanosecond, "µs": time.Microsecond, "ms": time.Millisecond,
	"s": time.Second, "min": time.Minute,
}

// docValue reads a checked row's value: a quoted string, or a number —
// its digits may be grouped by spaces — with a unit exactly when the
// constant is a duration.
func docValue(s string, duration bool) (constant.Value, error) {
	s = strings.Trim(strings.TrimSpace(s), "`")
	if strings.HasPrefix(s, `"`) {
		u, err := strconv.Unquote(s)
		if err != nil || duration {
			return nil, fmt.Errorf("%s is not the constant's value", s)
		}
		return constant.MakeString(u), nil
	}
	f := strings.Fields(s)
	unit, hasUnit := time.Duration(0), false
	if len(f) > 1 {
		unit, hasUnit = durationUnits[f[len(f)-1]]
		if hasUnit {
			f = f[:len(f)-1]
		}
	}
	num := strings.Join(f, "")
	kind := token.INT
	if strings.ContainsAny(num, ".eE") {
		kind = token.FLOAT
	}
	v := constant.MakeFromLiteral(num, kind, 0)
	switch {
	case v.Kind() == constant.Unknown:
		return nil, fmt.Errorf("%q is not a number, with or without a unit (ns, µs, ms, s or min)", s)
	case duration && !hasUnit:
		return nil, fmt.Errorf("%q: a duration needs its unit (ns, µs, ms, s or min)", s)
	case !duration && hasUnit:
		return nil, fmt.Errorf("%q has a unit, but the constant is no duration", s)
	case duration:
		return constant.BinaryOp(v, token.MUL, constant.MakeInt64(int64(unit))), nil
	}
	return v, nil
}

// checkRow resolves a row's constant and compares its value with the row's.
func (m *module) checkRow(r tableRow) error {
	p := m.pkgs["ctxsearch/"+r.pkg]
	if p == nil {
		return fmt.Errorf("no package %s in the module", r.pkg)
	}
	c, ok := p.Scope().Lookup(r.name).(*types.Const)
	if !ok {
		return fmt.Errorf("%s has no constant %s", r.pkg, r.name)
	}
	named, _ := c.Type().(*types.Named)
	duration := named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "time" && named.Obj().Name() == "Duration"
	want, err := docValue(r.value, duration)
	if err != nil {
		return fmt.Errorf("%s.%s: %v", r.pkg, r.name, err)
	}
	got := c.Val()
	if (got.Kind() == constant.String) != (want.Kind() == constant.String) || !constant.Compare(got, token.EQL, want) {
		if duration {
			d, _ := constant.Int64Val(got)
			return fmt.Errorf("%s.%s is %v, the table says %s", r.pkg, r.name, time.Duration(d), r.value)
		}
		return fmt.Errorf("%s.%s is %s, the table says %s", r.pkg, r.name, got.ExactString(), r.value)
	}
	return nil
}

// goHead is the identifier chain a span starts with.
var goHead = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*`)

// fileExts end a dotted span that names a file, not a Go selector.
var fileExts = map[string]bool{
	"go": true, "md": true, "json": true, "yml": true, "txt": true, "sh": true,
	"gob": true, "obo": true, "bin": true, "state": true, "jsonl": true, "mod": true,
}

// checkName reads a span's leading identifier chain and, when it reads as
// a Go name, resolves it; the error says it resolves to nothing. A chain is
// a Go name when it is dotted (pkg.Name, Type.Method, pkg.Type.Field),
// called (Name(…)), a Test, Benchmark or Fuzz function, or a single
// mixedCaps identifier (a called or mixedCaps one may also be a helper of a
// _test.go file) — and not a file, a metric or JSON key (snake_case), or a
// word a hyphen, colon or slash continues (a header, a flag value, a path).
func (m *module) checkName(span string) error {
	span = strings.TrimSpace(span)
	head := goHead.FindString(span)
	if head == "" {
		return nil
	}
	next, _ := utf8.DecodeRuneInString(span[len(head):])
	el := strings.Split(head, ".")
	for _, prefix := range []string{"Test", "Benchmark", "Fuzz"} {
		if rest := strings.TrimPrefix(head, prefix); len(el) == 1 && rest != head && rest != "" && !unicode.IsLower(rune(rest[0])) {
			if !m.tests[head] {
				return fmt.Errorf("`%s` names no function of any _test.go file", span)
			}
			return nil
		}
	}
	if strings.ContainsRune("-:/", next) || (len(el) > 1 && fileExts[el[len(el)-1]]) {
		return nil
	}
	for _, e := range el {
		if strings.Contains(e, "_") && strings.ToLower(e) == e {
			return nil
		}
	}
	mixed := strings.ToLower(head) != head && strings.ToUpper(head) != head
	switch {
	case len(el) > 1:
		if m.names.resolves(el) {
			return nil
		}
	case next == '(' || mixed:
		if m.names.names[head] || m.tests[head] || types.Universe.Lookup(head) != nil {
			return nil
		}
	default:
		return nil
	}
	return fmt.Errorf("`%s` names no object, field or method of the module or the standard library", span)
}

// goNames indexes what a doc may name: packages by name, package-level
// types by name, and every name a package-level object, method or field
// has, over the module and every standard package it imports.
type goNames struct {
	pkgs  map[string][]*types.Package
	types map[string][]*types.TypeName
	names map[string]bool
}

// goNamesOf indexes the packages and every package they import.
func goNamesOf(pkgs map[string]*types.Package) *goNames {
	n := &goNames{pkgs: map[string][]*types.Package{}, types: map[string][]*types.TypeName{}, names: map[string]bool{}}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		n.pkgs[p.Name()] = append(n.pkgs[p.Name()], p)
		for _, name := range p.Scope().Names() {
			n.names[name] = true
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			n.types[name] = append(n.types[name], tn)
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					n.names[named.Method(i).Name()] = true
				}
			}
			switch u := tn.Type().Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					n.names[u.Field(i).Name()] = true
				}
			case *types.Interface:
				for i := 0; i < u.NumMethods(); i++ {
					n.names[u.Method(i).Name()] = true
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	walk(types.Unsafe)
	for _, p := range pkgs {
		walk(p)
	}
	return n
}

// resolves reports whether el names a package's object, then a field or
// method of it in turn, or a type's field or method in turn.
func (n *goNames) resolves(el []string) bool {
	for _, p := range n.pkgs[el[0]] {
		if obj := p.Scope().Lookup(el[1]); obj != nil && selects(obj, el[2:]) {
			return true
		}
	}
	for _, tn := range n.types[el[0]] {
		if selects(tn, el[1:]) {
			return true
		}
	}
	return false
}

// selects reports whether each name of sel is a field or method of what obj
// is, in turn: a type, or a variable or constant of one.
func selects(obj types.Object, sel []string) bool {
	for _, s := range sel {
		switch obj.(type) {
		case *types.TypeName, *types.Var, *types.Const:
		default:
			return false
		}
		t := obj.Type()
		pkg := obj.Pkg()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			pkg = named.Obj().Pkg()
		}
		if obj, _, _ = types.LookupFieldOrMethod(t, true, pkg, s); obj == nil {
			return false
		}
	}
	return true
}
