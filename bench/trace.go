//go:build linux

package main

import (
	"encoding/json"
	"os"
	"time"

	"ctxsearch/internal/stats"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Spans of one request share Req; Parent is the
// index of the enclosing span in the trace, -1 for a request's root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	// Self is End-Start minus the time covered by child spans; filled in
	// when the trace is written.
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine: the traced pass is sequential.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index, which end and child spans take.
func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// dur returns a closed span's duration in nanoseconds.
func (t *tracer) dur(id int) int64 { return t.spans[id].End - t.spans[id].Start }

// selfTimes sets every span's Self. Children of one span never overlap in
// this trace (the pass is sequential), so the covered time is their sum.
func (t *tracer) selfTimes() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
}

// durationsUS returns the durations in microseconds of every span named
// name.
func (t *tracer) durationsUS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

func (t *tracer) medianUS(name string) float64 { return stats.Median(t.durationsUS(name)) }

// write stores the trace as one JSON document.
func (t *tracer) write(path string, workload string, seed int64) error {
	t.selfTimes()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
