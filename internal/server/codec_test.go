package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ctxsearch"
)

// FuzzEncodeMatchesJSON: the hand encoders write exactly what encoding/json
// writes — a page as json.Marshal, a rows answer as writeJSON (json.Marshal
// and a newline), a shard request as json.Marshal — and fail exactly where
// json.Marshal fails, for any strings and floats in any field.
func FuzzEncodeMatchesJSON(f *testing.F) {
	sub := math.Float64frombits(1) // the least subnormal
	for _, seed := range []struct {
		s1, s2     string
		f1, f2, f3 float64
		n          int64
		flags      uint8
	}{
		{"dna repair", "GO:0006281", 0.5, 0.25, 0.75, 3, 0},
		{"<script>&amp;</script>", "a\x00b\x01\x1f\x7f\b\f\n\r\t\"\\/", 1e-7, 1e21, 1e20, -1, 1},
		{"\xff\xfe\xc3(\xe2\x82", "\xed\xa0\x80 surrogate bytes", math.Copysign(0, -1), sub, 2.2250738585072014e-308, math.MaxInt32, 2},
		{"line\u2028para\u2029end", "é ü 日本 🙂", 1e-6, 9.999999999999999e20, 123456789.125, math.MinInt32, 3},
		{"", "", math.NaN(), 1, 1, 0, 4},
		{"x", "y", math.Inf(1), math.Inf(-1), 0, 7, 5},
		{"x", "y", 0.1, 0.2, 0.30000000000000004, 1 << 40, 6},
	} {
		f.Add(seed.s1, seed.s2, seed.f1, seed.f2, seed.f3, seed.n, seed.flags)
	}
	f.Fuzz(func(t *testing.T, s1, s2 string, f1, f2, f3 float64, n int64, flags uint8) {
		rows := []ShardRow{
			{Doc: ctxsearch.PaperID(n), Relevancy: f1, Match: f2, Prestige: f3, Context: ctxsearch.TermID(s2)},
			{Doc: ctxsearch.PaperID(n >> 32), Relevancy: f3, Match: f1, Prestige: f2, Context: ctxsearch.TermID(s1)},
		}
		page := []SearchResult{{
			PaperID: int(n), PMID: int(n >> 7), Year: int(int32(n)), Title: s1, Snippet: s2,
			Relevancy: f1, Prestige: f2, Match: f3, Context: s2, ContextName: s1,
		}, {}}
		if flags&1 != 0 {
			rows, page = nil, nil
		} else if flags&2 != 0 {
			rows, page = rows[:0], page[:0]
		}
		req := ShardSearchRequest{Q: s1, Boolean: flags&4 != 0, Limit: int(n), Threshold: f1}
		if flags&8 != 0 {
			req.Finish = &ShardFinish{Offset: int(n >> 3), Limit: int(n >> 5), Rows: rows}
		}

		check := func(what string, want []byte, wantErr error, encode func(*jsonBuf)) {
			t.Helper()
			var j jsonBuf
			encode(&j)
			if (j.err != nil) != (wantErr != nil) || wantErr == nil && !bytes.Equal(j.b, want) {
				t.Fatalf("%s:\n got %q (%v)\nwant %q (%v)", what, j.b, j.err, want, wantErr)
			}
		}
		want, err := json.Marshal(SearchResponse{Query: s1, Results: page})
		check("page", want, err, func(j *jsonBuf) { j.page(SearchResponse{Query: s1, Results: page}) })
		var answer bytes.Buffer
		err = json.NewEncoder(&answer).Encode(ShardSearchResponse{Results: rows})
		check("rows answer", answer.Bytes(), err, func(j *jsonBuf) { j.rowsAnswer(ShardSearchResponse{Results: rows}) })
		want, err = json.Marshal(req)
		check("request", want, err, func(j *jsonBuf) { j.request(req) })
		if got, gerr := encodeRequest(req); (gerr != nil) != (err != nil) || err == nil && !bytes.Equal(got, want) {
			t.Fatalf("encodeRequest: %q (%v), want %q (%v)", got, gerr, want, err)
		}
	})
}

// stdDecode decodes body into v as the shard endpoints did with
// encoding/json: unknown fields disallowed and nothing after the value.
func stdDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the value")
	}
	return nil
}

// sameValue reports whether a and b are deeply equal, nil and empty slices
// and the bits of every float told apart: json.Marshal writes each float by
// its shortest round-tripping digits, -0 as -0, and nil as null.
func sameValue(a, b any) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return reflect.DeepEqual(a, b) && errA == nil && errB == nil && bytes.Equal(ja, jb)
}

// FuzzShardDecodeMatchesJSON: what the shard decoder accepts, encoding/json
// accepts too (unknown fields disallowed, nothing after the value) and
// decodes to the same value, as a request and as a rows answer; and every
// value encoding/json decodes a body to encodes to bytes the shard decoder
// reads back to that value, bit for bit.
func FuzzShardDecodeMatchesJSON(f *testing.F) {
	for _, s := range []string{
		`{"q":"dna repair","limit":5}`,
		`{"q":"x","boolean":true,"limit":101000,"threshold":0.2,"finish":{"offset":3,"limit":10,"rows":[{"d":3,"r":0.5,"m":0.25,"p":0.75,"c":"GO:1"},{"d":4}]}}`,
		` { "q" : "\u0071\ud83d\ude00\"\\\/\b\f\n\r\t" , "limit" : -0 , "finish" : null } `,
		`{"q":"x","limit":1,"finish":{"offset":0,"limit":1,"rows":null}}`,
		`{"q":"x","limit":1e2}`,
		`{"q":"x","limit":1.0}`,
		`{"q":"x","threshold":-0,"limit":0}`,
		`{"q":"x","threshold":1E-7,"limit":0}`,
		`{"q":"x","threshold":4.9e-324,"limit":0}`,
		`{"q":"x","threshold":1e400,"limit":0}`,
		`{"q":"x","limit":9223372036854775808}`,
		`{"Q":"x","limit":1}`,
		`{"q":"x","q":"y"}`,
		`{"q":null}`,
		`{"q":"\ud800"}`,
		`{"q":"\ud800\u0041"}`,
		"{\"q\":\"\xff\"}",
		"{\"q\":\"a\tb\"}",
		`{"q":"x"} x`,
		`{"q":"x"}}`,
		`{"results":[{"d":1,"r":0.9,"m":0.1,"p":0.2,"c":"GO:1"},{"d":2,"r":0.8,"m":0.1,"p":0.2,"c":"GO:1"}]}` + "\n",
		`{"results":null}`,
		`{"results":[]}`,
		`{"results":[{"d":2147483648}]}`,
		`{"results":[{"d":1,"x":2}]}`,
		`{"results":[{},]}`,
		`null`,
		`[]`,
		`{"q":"<\u003c&>","limit":01}`,
		`{"q":tru}`,
		`{"boolean":true,"q":"x","limit":2}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeShardRequest(body)
		var stdReq ShardSearchRequest
		stdErr := stdDecode(body, &stdReq)
		if err == nil && (stdErr != nil || !sameValue(req, stdReq)) {
			t.Fatalf("request %q: decoded %+v; encoding/json %+v, %v", body, req, stdReq, stdErr)
		}
		if stdErr == nil {
			roundTrip(t, stdReq, func(j *jsonBuf) { j.request(stdReq) }, decodeShardRequest)
		}

		answer, err := decodeShardRows(body)
		var stdAnswer ShardSearchResponse
		stdErr = stdDecode(body, &stdAnswer)
		if err == nil && (stdErr != nil || !sameValue(answer, stdAnswer)) {
			t.Fatalf("rows answer %q: decoded %+v; encoding/json %+v, %v", body, answer, stdAnswer, stdErr)
		}
		if stdErr == nil {
			roundTrip(t, stdAnswer, func(j *jsonBuf) { j.rowsAnswer(stdAnswer) }, decodeShardRows)
		}
	})
}

// roundTrip fails t unless what encode writes of v decodes back to v.
func roundTrip[T any](t *testing.T, v T, encode func(*jsonBuf), decode func([]byte) (T, error)) {
	t.Helper()
	var j jsonBuf
	if encode(&j); j.err != nil {
		return // a float JSON cannot hold: encoding/json never decodes one
	}
	got, err := decode(j.b)
	if err != nil || !sameValue(got, v) {
		t.Fatalf("%+v encodes to %q, which decodes to %+v, %v", v, j.b, got, err)
	}
}

// TestPageEncoderMatchesMarshal: every /search page of the HTTP spine
// battery is the bytes json.Marshal writes for the page it decodes to.
func TestPageEncoderMatchesMarshal(t *testing.T) {
	ref, paths := httpReference(t)
	pages := 0
	for _, path := range paths {
		if !strings.HasPrefix(path, "/search?") {
			continue
		}
		rec := get(t, ref, path)
		if rec.Code != http.StatusOK {
			continue
		}
		var page SearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		want, err := json.Marshal(page)
		if err != nil || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: served\n%s\njson.Marshal (%v)\n%s", path, rec.Body, err, want)
		}
		pages++
	}
	if pages == 0 {
		t.Fatal("the battery has no 200 page")
	}
	t.Logf("%d pages", pages)
}

// TestCodecKnowsEveryField: the decoder's field lists are the JSON names of
// the shard wire types in field order, and a value of each type with every
// field set, to a value of its own, encodes to the bytes json.Marshal
// writes and decodes back to itself. A field added to a page or wire type
// fails here until the codec learns it.
func TestCodecKnowsEveryField(t *testing.T) {
	for _, c := range []struct {
		typ    reflect.Type
		fields []string
	}{
		{reflect.TypeFor[ShardSearchRequest](), requestFields},
		{reflect.TypeFor[ShardFinish](), finishFields},
		{reflect.TypeFor[ShardRow](), rowFields},
		{reflect.TypeFor[ShardSearchResponse](), answerFields},
	} {
		if names := jsonNames(c.typ); !slices.Equal(names, c.fields) {
			t.Errorf("%v has JSON names %q; the decoder reads %q", c.typ, names, c.fields)
		}
	}

	var page SearchResponse
	var req ShardSearchRequest
	var answer ShardSearchResponse
	n := 0
	for _, v := range []any{&page, &req, &answer} {
		fillFields(t, reflect.ValueOf(v).Elem(), &n)
	}
	encoded := func(encode func(*jsonBuf)) []byte {
		var j jsonBuf
		if encode(&j); j.err != nil {
			t.Fatal(j.err)
		}
		return j.b
	}
	for _, c := range []struct {
		what string
		v    any
		got  []byte
	}{
		{"page", page, encoded(func(j *jsonBuf) { j.page(page) })},
		{"request", req, encoded(func(j *jsonBuf) { j.request(req) })},
		{"rows answer", answer, encoded(func(j *jsonBuf) { j.rowsAnswer(answer) })},
	} {
		want, err := json.Marshal(c.v)
		if c.what == "rows answer" {
			want = append(want, '\n')
		}
		if err != nil || !bytes.Equal(c.got, want) {
			t.Errorf("%s:\n got %s\nwant %s (%v)", c.what, c.got, want, err)
		}
	}
	roundTrip(t, req, func(j *jsonBuf) { j.request(req) }, decodeShardRequest)
	roundTrip(t, answer, func(j *jsonBuf) { j.rowsAnswer(answer) }, decodeShardRows)
}

// jsonNames returns the JSON names of a struct type's fields, in order.
func jsonNames(typ reflect.Type) []string {
	var names []string
	for i := range typ.NumField() {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch name {
		case "-":
			continue
		case "":
			name = f.Name
		}
		names = append(names, name)
	}
	return names
}

// fillFields sets every field of v, through pointers and into two elements
// of each slice, to a value no other field has: numbered by *n.
func fillFields(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			fillFields(t, v.Field(i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillFields(t, v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := range v.Len() {
			fillFields(t, v.Index(i), n)
		}
	case reflect.String:
		v.SetString("s" + strconv.Itoa(*n))
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("no value for a field of kind %v (%v)", v.Kind(), v.Type())
	}
}
