package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
)

// The JSON of a page's rows, written and read by hand: the /search page
// (SearchResponse), the rows answer of /shard/search (ShardSearchResponse)
// and the ShardSearchRequest a coordinator sends.
//
//   - Each encoder writes exactly the bytes json.Marshal writes for the same
//     value (the rows answer, as writeJSON, with its trailing newline), and
//     fails where it fails: on a NaN or an infinity (FuzzEncodeMatchesJSON).
//   - The decoder reads the two shard bodies. It accepts a subset of what
//     encoding/json, with unknown fields disallowed and nothing after the
//     value, accepts, and decodes that subset to the same values
//     (FuzzShardDecodeMatchesJSON). Outside the subset are a key that matches
//     a field only when case is ignored, a key given twice, null for a field
//     that is not a pointer or a slice, and a string with invalid UTF-8 or a
//     lone surrogate escape — the inputs encoding/json reads loosely. No
//     encoder output is among them.

// jsonBuf appends JSON to b. A float JSON cannot hold, a NaN or an
// infinity, sets err, as it fails json.Marshal.
type jsonBuf struct {
	b   []byte
	err error
}

func (j *jsonBuf) raw(s string) { j.b = append(j.b, s...) }

func (j *jsonBuf) int(n int64) { j.b = strconv.AppendInt(j.b, n, 10) }

// float appends f as encoding/json does: like ES6's number to string,
// shortest digits, an exponent below 1e-6 and from 1e21 on.
func (j *jsonBuf) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if j.err == nil {
			j.err = fmt.Errorf("unsupported value: %v", f)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	j.b = strconv.AppendFloat(j.b, f, format, -1, 64)
	if format == 'e' {
		// e-07 to e-7, as encoding/json writes it.
		if n := len(j.b); n >= 4 && j.b[n-4] == 'e' && j.b[n-3] == '-' && j.b[n-2] == '0' {
			j.b[n-2] = j.b[n-1]
			j.b = j.b[:n-1]
		}
	}
}

// str appends s quoted as encoding/json does with HTML escaping on: <, >
// and & as \u003c, \u003e and \u0026, control bytes escaped, each invalid
// UTF-8 byte as \ufffd, and U+2028 and U+2029 escaped.
func (j *jsonBuf) str(s string) {
	const hex = "0123456789abcdef"
	b := append(j.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	j.b = append(b, '"')
}

// page appends a /search body: json.Marshal(SearchResponse).
func (j *jsonBuf) page(p SearchResponse) {
	j.raw(`{"query":`)
	j.str(p.Query)
	j.raw(`,"results":`)
	if p.Results == nil {
		j.raw("null}")
		return
	}
	j.raw("[")
	for i, r := range p.Results {
		if i > 0 {
			j.raw(",")
		}
		j.raw(`{"paper_id":`)
		j.int(int64(r.PaperID))
		j.raw(`,"pmid":`)
		j.int(int64(r.PMID))
		j.raw(`,"year":`)
		j.int(int64(r.Year))
		j.raw(`,"title":`)
		j.str(r.Title)
		j.raw(`,"snippet":`)
		j.str(r.Snippet)
		j.raw(`,"relevancy":`)
		j.float(r.Relevancy)
		j.raw(`,"prestige":`)
		j.float(r.Prestige)
		j.raw(`,"match":`)
		j.float(r.Match)
		j.raw(`,"context":`)
		j.str(r.Context)
		j.raw(`,"context_name":`)
		j.str(r.ContextName)
		j.raw("}")
	}
	j.raw("]}")
}

// rows appends a list of wire rows: json.Marshal([]ShardRow).
func (j *jsonBuf) rows(rows []ShardRow) {
	if rows == nil {
		j.raw("null")
		return
	}
	j.raw("[")
	for i, r := range rows {
		if i > 0 {
			j.raw(",")
		}
		j.raw(`{"d":`)
		j.int(int64(r.Doc))
		j.raw(`,"r":`)
		j.float(r.Relevancy)
		j.raw(`,"m":`)
		j.float(r.Match)
		j.raw(`,"p":`)
		j.float(r.Prestige)
		j.raw(`,"c":`)
		j.str(string(r.Context))
		j.raw("}")
	}
	j.raw("]")
}

// rowsAnswer appends the rows answer of /shard/search as writeJSON sends
// it: json.Marshal(ShardSearchResponse) and a newline.
func (j *jsonBuf) rowsAnswer(resp ShardSearchResponse) {
	j.raw(`{"results":`)
	j.rows(resp.Results)
	j.raw("}\n")
}

// request appends json.Marshal(ShardSearchRequest).
func (j *jsonBuf) request(req ShardSearchRequest) {
	j.raw(`{"q":`)
	j.str(req.Q)
	if req.Boolean {
		j.raw(`,"boolean":true`)
	}
	j.raw(`,"limit":`)
	j.int(int64(req.Limit))
	if req.Threshold != 0 {
		j.raw(`,"threshold":`)
		j.float(req.Threshold)
	}
	if fin := req.Finish; fin != nil {
		j.raw(`,"finish":{"offset":`)
		j.int(int64(fin.Offset))
		j.raw(`,"limit":`)
		j.int(int64(fin.Limit))
		j.raw(`,"rows":`)
		j.rows(fin.Rows)
		j.raw("}")
	}
	j.raw("}")
}

// encodeRequest returns json.Marshal(req) in a buffer of its own: the
// payload outlives the call that sends it, through retries and failovers.
func encodeRequest(req ShardSearchRequest) ([]byte, error) {
	size := 96 + len(req.Q)
	if req.Finish != nil {
		// A row with full-precision scores encodes to about 100 bytes.
		size += 100 * len(req.Finish.Rows)
	}
	j := jsonBuf{b: make([]byte, 0, size)}
	j.request(req)
	return j.b, j.err
}

// maxPooledBuf is the largest buffer bufPool keeps: a page of DefaultLimit
// rows fits; a page near MaxLimit rows, or a deep finishing request's rows,
// is dropped after use.
const maxPooledBuf = 256 << 10

// bufPool recycles the buffers pages, rows answers and request bodies are
// encoded into or read from.
var bufPool = sync.Pool{New: func() any { return new(jsonBuf) }}

// getBuf returns an empty pooled buffer.
func getBuf() *jsonBuf {
	j := bufPool.Get().(*jsonBuf)
	j.b, j.err = j.b[:0], nil
	return j
}

// putBuf returns j to the pool. Nothing may hold j.b after it.
func putBuf(j *jsonBuf) {
	if cap(j.b) <= maxPooledBuf {
		bufPool.Put(j)
	}
}

// readBody reads a body of at most limit bytes into j.b; one byte more is
// an error, not a body cut short.
func (j *jsonBuf) readBody(body io.Reader, limit int) error {
	buf := bytes.NewBuffer(j.b[:0])
	_, err := buf.ReadFrom(io.LimitReader(body, int64(limit)+1))
	j.b = buf.Bytes()
	if err == nil && len(j.b) > limit {
		err = fmt.Errorf("body exceeds %d bytes", limit)
	}
	return err
}

// jsonReader reads one shard body from b strictly (see the codec's
// contract above). The first error ends the read: every method is a no-op
// once err is set.
type jsonReader struct {
	b   []byte
	i   int
	err error
	// scratch holds a string with escapes as it is unquoted.
	scratch []byte
	// lastContext is the context ID read last: rows of one context name it
	// again, and reuse its string.
	lastContext ontology.TermID
}

// decodeShardRequest decodes the body of a /shard/search request.
func decodeShardRequest(body []byte) (ShardSearchRequest, error) {
	r := jsonReader{b: body}
	var req ShardSearchRequest
	r.object(requestFields, func(k int) {
		switch k {
		case 0:
			req.Q = string(r.str())
		case 1:
			req.Boolean = r.boolean()
		case 2:
			req.Limit = int(r.integer(strconv.IntSize))
		case 3:
			req.Threshold = r.float()
		case 4:
			if !r.null() {
				req.Finish = r.finish()
			}
		}
	})
	return req, r.end()
}

// decodeShardRows decodes the rows answer of /shard/search.
func decodeShardRows(body []byte) (ShardSearchResponse, error) {
	r := jsonReader{b: body}
	var resp ShardSearchResponse
	r.object(answerFields, func(int) {
		if !r.null() {
			resp.Results = r.rows()
		}
	})
	return resp, r.end()
}

// The fields of each object, by their JSON names; a field's position is the
// k its object's value function is called with.
var (
	requestFields = []string{"q", "boolean", "limit", "threshold", "finish"}
	finishFields  = []string{"offset", "limit", "rows"}
	rowFields     = []string{"d", "r", "m", "p", "c"}
	answerFields  = []string{"results"}
)

func (r *jsonReader) finish() *ShardFinish {
	fin := new(ShardFinish)
	r.object(finishFields, func(k int) {
		switch k {
		case 0:
			fin.Offset = int(r.integer(strconv.IntSize))
		case 1:
			fin.Limit = int(r.integer(strconv.IntSize))
		case 2:
			if !r.null() {
				fin.Rows = r.rows()
			}
		}
	})
	return fin
}

// rows reads an array of wire rows; [] is an empty slice, not nil.
func (r *jsonReader) rows() []ShardRow {
	// Room for what the rest of the body holds at 64 bytes a row; a row
	// with full-precision scores takes 80 to 100.
	rows := make([]ShardRow, 0, (len(r.b)-r.i)/64)
	if !r.expect('[') || r.consume(']') {
		return rows
	}
	for r.err == nil {
		var row ShardRow
		r.object(rowFields, func(k int) {
			switch k {
			case 0:
				row.Doc = corpus.PaperID(r.integer(32))
			case 1:
				row.Relevancy = r.float()
			case 2:
				row.Match = r.float()
			case 3:
				row.Prestige = r.float()
			case 4:
				if s := r.str(); string(s) != string(r.lastContext) {
					r.lastContext = ontology.TermID(s)
				}
				row.Context = r.lastContext
			}
		})
		rows = append(rows, row)
		if !r.consume(',') {
			r.expect(']')
			break
		}
	}
	return rows
}

// fail records the first error, at the read offset.
func (r *jsonReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("offset %d: %s", r.i, fmt.Sprintf(format, args...))
	}
}

// ws skips JSON whitespace.
func (r *jsonReader) ws() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (r *jsonReader) consume(c byte) bool {
	if r.err != nil {
		return false
	}
	r.ws()
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// expect is consume that fails when c is not there.
func (r *jsonReader) expect(c byte) bool {
	if r.consume(c) {
		return true
	}
	if r.i < len(r.b) {
		r.fail("want %q, have %q", c, r.b[r.i])
	} else {
		r.fail("want %q, the body ends", c)
	}
	return false
}

// end fails unless only whitespace is left, and returns the read's error.
func (r *jsonReader) end() error {
	if r.err == nil {
		if r.ws(); r.i < len(r.b) {
			r.fail("data after the object")
		}
	}
	return r.err
}

// object reads an object whose keys are among fields, each at most once,
// calling value with a key's position in fields once r is at its value.
func (r *jsonReader) object(fields []string, value func(k int)) {
	if !r.expect('{') || r.consume('}') {
		return
	}
	var seen uint
	for r.err == nil {
		key := r.str()
		k := -1
		for i, f := range fields {
			if string(key) == f {
				k = i
				break
			}
		}
		switch {
		case r.err != nil:
			return
		case k < 0:
			r.fail("unknown field %q", key)
			return
		case seen&(1<<k) != 0:
			r.fail("field %q given twice", key)
			return
		}
		seen |= 1 << k
		if !r.expect(':') {
			return
		}
		value(k)
		if !r.consume(',') {
			r.expect('}')
			return
		}
	}
}

// literal reads the literal word if it is next, reporting whether it was.
func (r *jsonReader) literal(word string) bool {
	if r.err != nil {
		return false
	}
	r.ws()
	if len(r.b)-r.i >= len(word) && string(r.b[r.i:r.i+len(word)]) == word {
		r.i += len(word)
		return true
	}
	return false
}

// null reads null if it is next, reporting whether it was.
func (r *jsonReader) null() bool { return r.literal("null") }

func (r *jsonReader) boolean() bool {
	switch {
	case r.literal("true"):
		return true
	case !r.literal("false"):
		r.fail("want a boolean")
	}
	return false
}

// number reads a JSON number literal.
func (r *jsonReader) number() []byte {
	if r.err != nil {
		return nil
	}
	r.ws()
	b, start, i := r.b, r.i, r.i
	digits := func() bool {
		from := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	ok := true
	switch {
	case i < len(b) && b[i] == '0':
		i++
	default:
		ok = digits()
	}
	if ok && i < len(b) && b[i] == '.' {
		i++
		ok = digits()
	}
	if ok && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		ok = digits()
	}
	if !ok {
		r.fail("want a number")
		return nil
	}
	r.i = i
	return b[start:i]
}

// integer reads a number that is an integer of the given bit size.
func (r *jsonReader) integer(bits int) int64 {
	lit := r.number()
	if r.err != nil {
		return 0
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		r.fail("%s is not a %d-bit integer", lit, bits)
	}
	return n
}

func (r *jsonReader) float() float64 {
	lit := r.number()
	if r.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		r.fail("%s is out of a float64's range", lit)
	}
	return f
}

// str reads a string and returns its bytes: a slice of the body, or of
// scratch when it has escapes, valid until the next str.
func (r *jsonReader) str() []byte {
	if !r.expect('"') {
		return nil
	}
	b, start := r.b, r.i
	ascii := true
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			r.i = i + 1
			if !ascii && !utf8.Valid(b[start:i]) {
				r.fail("invalid UTF-8 in string")
			}
			return b[start:i]
		case c == '\\':
			r.i = i
			return r.unquote(b[start:i])
		case c < 0x20:
			r.i = i
			r.fail("control byte in string")
			return nil
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	r.i = len(b)
	r.fail("unterminated string")
	return nil
}

// unquote finishes a string with escapes: done is what precedes the first
// backslash, at r.i.
func (r *jsonReader) unquote(done []byte) []byte {
	out := append(r.scratch[:0], done...)
	defer func() { r.scratch = out[:0] }()
	b := r.b
	for i := r.i; i < len(b); {
		c := b[i]
		switch {
		case c == '"':
			r.i = i + 1
			if !utf8.Valid(out) {
				r.fail("invalid UTF-8 in string")
			}
			return out
		case c < 0x20:
			r.i = i
			r.fail("control byte in string")
			return nil
		case c != '\\':
			out = append(out, c)
			i++
			continue
		}
		if i+1 >= len(b) {
			break
		}
		switch e := b[i+1]; e {
		case '"', '\\', '/':
			out = append(out, e)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			rr := hex4(b[i+2:])
			n := 6
			if utf16.IsSurrogate(rr) {
				// Only a high surrogate followed by a low one is a rune.
				if rr2 := rune(-1); len(b) >= i+12 && b[i+6] == '\\' && b[i+7] == 'u' {
					rr2 = hex4(b[i+8:])
					rr = utf16.DecodeRune(rr, rr2)
				} else {
					rr = utf8.RuneError
				}
				if rr == utf8.RuneError {
					r.i = i
					r.fail("lone surrogate escape in string")
					return nil
				}
				n = 12
			}
			if rr < 0 {
				r.i = i
				r.fail("bad \\u escape in string")
				return nil
			}
			out = utf8.AppendRune(out, rr)
			i += n
			continue
		default:
			r.i = i
			r.fail("bad escape in string")
			return nil
		}
		i += 2
	}
	r.i = len(b)
	r.fail("unterminated string")
	return nil
}

// hex4 returns the rune of the four hex digits b begins with, or -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
