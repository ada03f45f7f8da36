//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ctxsearch/internal/search"
	"ctxsearch/internal/stats"
)

// timing is what one operation took: latency is the time the system under
// test needed, own the time the load generator measurably spent on its own
// work for the operation (0 when that work is only visible as this process's
// CPU time).
type timing struct {
	latency, own time.Duration
}

// opFunc performs one request for one client and reports a failure: a
// transport error, a status other than 200, or a page that differs from the
// oracle's.
type opFunc func(client int, r request) (timing, error)

// The load is a closed loop: each client sends its next request only after
// the previous one completed, as callers that wait for a reply do. Two
// clients, one connection each, on the host's two cores.
const (
	numClients = 2
	sliceLen   = time.Second
	warmUp     = time.Second
)

// loadResult is one measured window. p50 and cpuMsPerReq are calibrated
// (calibrate.go); rawP50 and rawCPUMsPerReq are the same quantities as the
// clocks gave them, over the whole window.
type loadResult struct {
	attempted, failed int
	firstErr          error
	p50, cpuMsPerReq  float64 // calibrated, ms
	rawP50            float64
	rawCPUMsPerReq    float64
	clientMsPerReq    float64 // the load generator's own cost, the calibrator
	p95, p99, qps     float64 // over every sample of the window
	samples           int
	sliceSpread       float64 // median slice's raw p50 over the best slice's
	memMB             float64 // median of the summed PSS at the slice ends
	stealShare        float64
	clientCPUShare    float64
}

type clientSlice struct {
	lat, own []float64 // ms
}

type clientLog struct {
	slices            []clientSlice
	attempted, failed int
	firstErr          error
}

// runLoad drives op with numClients closed-loop clients over reqs: warmUp
// unmeasured, then measure split into slices of about sliceLen. serverPIDs
// are the processes whose CPU time is the server's, and then this process's
// CPU time per request is the load generator's cost; with none, the server
// is this process (library_batch) and the load generator's cost is the
// median of what op reports as its own. referenceMs is the workload's
// calibration constant. alive is polled so that a dead child fails the run
// instead of showing up as a wall of transport errors.
func runLoad(reqs []request, op opFunc, measure time.Duration, serverPIDs []int, referenceMs float64, alive func() error) (loadResult, error) {
	start := time.Now()
	measureStart := start.Add(warmUp)
	end := measureStart.Add(measure)
	numSlices := max(1, int(measure/sliceLen))
	sliceDur := measure / time.Duration(numSlices)
	var abort atomic.Bool

	logs := make([]clientLog, numClients)
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		logs[c].slices = make([]clientSlice, numSlices)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lg := &logs[c]
			for i := c; !abort.Load(); i += numClients {
				r := reqs[i%len(reqs)]
				if !time.Now().Before(end) {
					return
				}
				t, err := op(c, r)
				done := time.Now()
				// A request belongs to the slice it completes in; warm-up
				// completions and the one overrunning the end are dropped.
				if done.Before(measureStart) || !done.Before(end) {
					continue
				}
				lg.attempted++
				if err != nil {
					lg.failed++
					if lg.firstErr == nil {
						lg.firstErr = fmt.Errorf("%s: %w", r.Path, err)
					}
					continue
				}
				s := &lg.slices[min(int(done.Sub(measureStart)/sliceDur), numSlices-1)]
				s.lat = append(s.lat, float64(t.latency)/float64(time.Millisecond))
				s.own = append(s.own, float64(t.own)/float64(time.Millisecond))
			}
		}(c)
	}

	var runErr error
	waitUntil := func(t time.Time) {
		for runErr == nil && time.Now().Before(t) {
			time.Sleep(min(time.Until(t), 100*time.Millisecond))
			if err := alive(); err != nil {
				runErr = err
				abort.Store(true)
			}
		}
	}
	// CPU times and memory are read at every slice boundary.
	var total0, steal0 float64
	serverAt := make([]float64, numSlices+1)
	selfAt := make([]float64, numSlices+1)
	var mem []float64
	for s := 0; s <= numSlices && runErr == nil; s++ {
		waitUntil(measureStart.Add(time.Duration(s) * sliceDur))
		if s == 0 {
			total0, steal0 = hostCPU()
		}
		selfAt[s] = selfCPUSeconds()
		cpu, err := serverCPUSeconds(serverPIDs)
		if err == nil && s > 0 {
			var mb float64
			mb, err = memoryMB(serverPIDs)
			mem = append(mem, mb)
		}
		if err != nil && runErr == nil {
			runErr = fmt.Errorf("reading the server's CPU time and memory: %w", err)
			abort.Store(true)
		}
		serverAt[s] = cpu
	}
	total1, steal1 := hostCPU()
	wg.Wait()
	if runErr != nil {
		return loadResult{}, runErr
	}

	var res loadResult
	var all, allOwn []float64
	var slices []sliceStat
	for s := 0; s < numSlices; s++ {
		var lat, own []float64
		for c := range logs {
			lat = append(lat, logs[c].slices[s].lat...)
			own = append(own, logs[c].slices[s].own...)
		}
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		all = append(all, lat...)
		allOwn = append(allOwn, own...)
		n := float64(len(lat))
		st := sliceStat{p50: percentile(lat, 50), serverMs: (serverAt[s+1] - serverAt[s]) * 1000 / n, clientMs: stats.Median(own)}
		if len(serverPIDs) > 0 {
			st.clientMs = (selfAt[s+1] - selfAt[s]) * 1000 / n
		}
		slices = append(slices, st)
	}
	for c := range logs {
		res.attempted += logs[c].attempted
		res.failed += logs[c].failed
		if res.firstErr == nil {
			res.firstErr = logs[c].firstErr
		}
	}
	if len(all) == 0 {
		return res, fmt.Errorf("no request completed inside the measured window")
	}
	sort.Float64s(all)
	n := float64(len(all))
	res.samples = len(all)
	res.p50, res.cpuMsPerReq, res.sliceSpread = calibrate(slices, referenceMs)
	res.rawP50, res.p95, res.p99 = percentile(all, 50), percentile(all, 95), percentile(all, 99)
	res.qps = n / measure.Seconds()
	server, self := serverAt[numSlices]-serverAt[0], selfAt[numSlices]-selfAt[0]
	res.rawCPUMsPerReq = server * 1000 / n
	res.clientMsPerReq = stats.Median(allOwn)
	if len(serverPIDs) > 0 {
		res.clientMsPerReq = self * 1000 / n
		res.clientCPUShare = self / (self + server)
	}
	res.memMB = stats.Median(mem)
	if total1 > total0 {
		res.stealShare = (steal1 - steal0) / (total1 - total0)
	}
	return res, nil
}

// newHTTPClient returns the load generator's client: keep-alive, at most
// numClients connections per server, no transparent compression.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: numClients,
			MaxConnsPerHost:     numClients,
			DisableCompression:  true,
		},
	}
}

// httpOp sends r to base and compares the body with the oracle's page when
// the request's key was sampled.
func httpOp(client *http.Client, base string, expected [][]byte) opFunc {
	bufs := make([]bytes.Buffer, numClients)
	return func(c int, r request) (timing, error) {
		t0 := time.Now()
		resp, err := client.Get(base + r.Path)
		if err != nil {
			return timing{}, err
		}
		buf := &bufs[c]
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		t := timing{latency: time.Since(t0)}
		if err != nil {
			return t, err
		}
		if resp.StatusCode != http.StatusOK {
			return t, fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.Bytes())
		}
		if exp := expected[r.Key]; exp != nil && !bytes.Equal(buf.Bytes(), exp) {
			return t, fmt.Errorf("page differs from the oracle's")
		}
		return t, nil
	}
}

// libraryOp calls Engine.SearchContext for the full ranked list, fingerprints
// it — the load generator's own work, timed apart from the call — and
// compares the fingerprint with the single-threaded oracle pass's.
func libraryOp(l *library, expected []uint64) opFunc {
	return func(_ int, r request) (timing, error) {
		t0 := time.Now()
		res, err := l.eng.SearchContext(context.Background(), r.Query, search.Options{})
		t1 := time.Now()
		if err != nil {
			return timing{}, err
		}
		fp := fingerprint(res)
		t := timing{latency: t1.Sub(t0), own: time.Since(t1)}
		if exp := expected[r.Key]; exp != 0 && fp != exp {
			return t, fmt.Errorf("ranked list differs from the oracle's")
		}
		return t, nil
	}
}
