//go:build linux

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ctxsearch/internal/search"
	"ctxsearch/internal/server"
	"ctxsearch/internal/stats"
)

// An untraced run sets up setupReps times (offline build, then boot to
// ready) and boots bootReps times in all. setup_s is the median set-up,
// each calibrated with the speed probes around it (calibrate.go).
// A boot takes a tenth of a second and a disturbance can double it, so
// loadgen.ready_s is the mean of the bestBoots fastest, like a slice
// aggregate.
const (
	setupReps = 3
	bootReps  = 7
	bestBoots = 3
)

// runOnce performs one run of one workload: set-up, generated requests,
// oracle, load, and — traced — the in-process pass. Untraced it returns the
// end-to-end metrics, traced the per-layer ones.
func (e *env) runOnce(workload string, seconds int, traced bool) (outcome, error) {
	defer e.ps.stopAll()
	cfg := corpusConfig()
	inProcess := workload == "library_batch"
	referenceMs := referenceClientMs[workload]
	m := values{}

	// Set-up: the offline build of the state file, then the serving shape
	// booted until its front door is ready. The last boot's deployment is
	// the one measured.
	builds, boots := setupReps, bootReps
	if traced {
		builds, boots = 1, 1
	}
	var setups, rawSetups, readies []float64
	var stages map[string]float64
	var dep *deployment
	var lib *library
	probe := speedProbe()
	for rep := 0; rep < boots; rep++ {
		var buildWall time.Duration
		if rep < builds {
			var err error
			if buildWall, stages, err = e.buildState(); err != nil {
				return outcome{}, err
			}
		}
		var ready time.Duration
		if inProcess {
			t0 := time.Now()
			o, c, err := generateData(cfg)
			if err != nil {
				return outcome{}, err
			}
			l, _, err := openLibrary(cfg, o, c, e.statePath)
			if err != nil {
				return outcome{}, err
			}
			ready = time.Since(t0)
			if rep < boots-1 {
				l.close()
			} else {
				lib = l
			}
		} else {
			d, r, err := e.boot(workload)
			if err != nil {
				return outcome{}, err
			}
			ready = r
			if rep < boots-1 {
				e.ps.stopAll()
			} else {
				dep = d
			}
		}
		if rep < builds {
			// The set-up is calibrated with the probes on either side of it.
			after := speedProbe()
			raw := (buildWall + ready).Seconds()
			rawSetups = append(rawSetups, raw)
			setups = append(setups, raw*referenceProbeMs/((probe+after)/2))
			probe = after
		}
		readies = append(readies, ready.Seconds())
	}
	if lib == nil {
		o, c, err := generateData(cfg)
		if err != nil {
			return outcome{}, err
		}
		if lib, _, err = openLibrary(cfg, o, c, e.statePath); err != nil {
			return outcome{}, err
		}
	}
	defer lib.close()
	fi, err := os.Stat(e.statePath)
	if err != nil {
		return outcome{}, err
	}

	// Inputs: everything the servers see is generated here from the seed.
	names := lib.contextNames()
	vocab := vocabulary(lib.onto, lib.corpus, names, e.seed, minVocabulary, lib.usable(false))
	if len(vocab) < oracleSample {
		return outcome{}, fmt.Errorf("only %d usable query strings from %d context names", len(vocab), len(names))
	}
	var exprs []string
	if workload == "boolean_page" {
		exprs = booleanExpressions(names, e.seed, lib.usable(true))
		if len(exprs) < oracleSample {
			return outcome{}, fmt.Errorf("only %d usable boolean expressions", len(exprs))
		}
	}
	reqs := requestsFor(workload, e.seed, vocab, exprs)
	m["loadgen.vocabulary"] = float64(len(vocab))
	m["loadgen.ready_s"] = bestMean(readies, bestBoots, true)

	// Oracle and the operation the clients perform.
	var op opFunc
	var pids []int
	var pages [][]byte
	if inProcess {
		lists, err := lib.expectedLists(reqs)
		if err != nil {
			return outcome{}, err
		}
		op = libraryOp(lib, lists)
	} else {
		if pages, err = lib.expectedPages(reqs, max(len(vocab), len(exprs), cacheKeySpace)); err != nil {
			return outcome{}, err
		}
		op = httpOp(e.client, dep.front, pages)
		pids = dep.pids()
	}

	if !traced {
		res, err := runLoad(reqs, op, time.Duration(seconds)*time.Second, pids, referenceMs, e.ps.dead)
		if err != nil {
			return outcome{}, err
		}
		m["setup_s"] = stats.Median(setups)
		m["loadgen.raw_setup_s"] = stats.Median(rawSetups)
		m["state_mb"] = float64(fi.Size()) / 1e6
		m["p50_ms"], m["cpu_ms_per_req"], m["mem_mb"] = res.p50, res.cpuMsPerReq, res.memMB
		loadgenHealth(m, res)
		return finish(m, res.attempted, res.failed, res.firstErr), nil
	}

	// Traced run: half the time is live load, for the counters only the
	// real processes keep (/stats) and the load generator's own health; the
	// other half is the in-process pass with spans.
	live := time.Duration(seconds) * time.Second / 2
	tourBudget := time.Duration(seconds)*time.Second - live
	var res loadResult
	var frontP50 float64 // live p50 of the single-server front door, ms
	if inProcess {
		if res, err = runLoad(reqs, op, live, nil, referenceMs, e.ps.dead); err != nil {
			return outcome{}, err
		}
	} else {
		window := live
		var ref *deployment
		if workload == "cluster_page" {
			// The single-process shape beside the cluster, on the identical
			// request list: coordinator.overhead_us is the difference.
			window = live / 2
			if ref, err = e.serveOne("ref", true); err != nil {
				return outcome{}, err
			}
		}
		st0, err := e.fetchStats(dep.front)
		if err != nil {
			return outcome{}, err
		}
		if res, err = runLoad(reqs, op, window, pids, referenceMs, e.ps.dead); err != nil {
			return outcome{}, err
		}
		st1, err := e.fetchStats(dep.front)
		if err != nil {
			return outcome{}, err
		}
		statsDeltas(m, st0, st1, res.attempted)
		frontP50 = res.rawP50
		if ref != nil {
			refRes, err := runLoad(reqs, httpOp(e.client, ref.front, pages), window, ref.pids(), referenceMs, e.ps.dead)
			if err != nil {
				return outcome{}, err
			}
			res.attempted += refRes.attempted
			res.failed += refRes.failed
			if res.firstErr == nil {
				res.firstErr = refRes.firstErr
			}
			m["coordinator.overhead_us"] = (res.rawP50 - refRes.rawP50) * 1000
			frontP50 = refRes.rawP50
		}
	}
	loadgenHealth(m, res)

	tr := newTracer()
	tv, replayed, err := lib.tour(tr, workload, reqs, tourBudget, e, dep)
	if err != nil {
		return outcome{}, err
	}
	for k, v := range tv {
		m[k] = v
	}
	m["trace.requests"] = float64(replayed)
	if !inProcess {
		// What the socket, the HTTP server loop and the client add to the
		// handler: on hot_cache the median request is a hit, elsewhere it
		// runs the cache-off handler.
		inside := m["server.handler_us"]
		if workload == "hot_cache" {
			inside = m["cache.hit_us"]
		}
		m["server.http_overhead_us"] = frontP50*1000 - inside
	}
	if err := tr.write(filepath.Join(e.outDir, "trace.json"), workload, e.seed); err != nil {
		return outcome{}, err
	}

	m["store.state_bytes"] = float64(fi.Size())
	if err := e.storeTimes(m, lib, reqs[0]); err != nil {
		return outcome{}, err
	}
	for stage, name := range map[string]string{
		"analyze": "build.analyze_s", "tfidf-warm": "build.tfidf_warm_s", "index": "build.index_s",
		"posindex": "build.posindex_s", "contextset-text": "build.contextset_s",
		"score-text": "build.score_s", "state-save": "build.state_save_s",
	} {
		m[name] = stages[stage]
	}
	return finish(m, res.attempted+replayed, res.failed, res.firstErr), nil
}

// finish turns measured values into the run's outcome; a failed request
// makes the run incorrect and the first failure is shown.
func finish(m values, attempted, failed int, firstErr error) outcome {
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %d of %d requests failed, first: %v\n", failed, attempted, firstErr)
	}
	m["fail_share"] = float64(failed) / float64(attempted)
	return outcome{attempted: attempted, failed: failed, metrics: m}
}

// loadgenHealth records the load generator's own health figures: per-layer
// metrics of a traced run, notes beside the end-to-end metrics otherwise.
func loadgenHealth(m values, res loadResult) {
	m["loadgen.raw_p50_ms"] = res.rawP50
	m["loadgen.raw_cpu_ms_per_req"] = res.rawCPUMsPerReq
	m["loadgen.client_ms_per_req"] = res.clientMsPerReq
	m["loadgen.qps"] = res.qps
	m["loadgen.samples"] = float64(res.samples)
	m["loadgen.p95_ms"] = res.p95
	m["loadgen.p99_ms"] = res.p99
	m["loadgen.slice_spread"] = res.sliceSpread
	m["loadgen.steal_share"] = res.stealShare
	m["loadgen.client_cpu_share"] = res.clientCPUShare
}

// serverCPUSeconds sums the CPU time of the server processes, or reads this
// process's when the workload runs in-process.
func serverCPUSeconds(pids []int) (float64, error) {
	if len(pids) == 0 {
		return selfCPUSeconds(), nil
	}
	var sum float64
	for _, pid := range pids {
		s, err := cpuSeconds(pid)
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}

// memoryMB sums the PSS of the server processes, or reads this process's
// when the workload runs in-process.
func memoryMB(pids []int) (float64, error) {
	if len(pids) == 0 {
		pids = []int{os.Getpid()}
	}
	var sum float64
	for _, pid := range pids {
		mb, err := pssMB(pid)
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// statsDeltas turns two /stats snapshots around a load window into the
// cache.*, coordinator.* and index.topk_visited_per_req metrics.
func statsDeltas(m values, a, b server.StatsResponse, requests int) {
	hits, misses := b.CacheHits-a.CacheHits, b.CacheMisses-a.CacheMisses
	if hits+misses > 0 {
		m["cache.hit_share"] = float64(hits) / float64(hits+misses)
	}
	m["cache.coalesced"] = float64(b.CacheCoalesced - a.CacheCoalesced)
	m["cache.entries"] = float64(b.CacheEntries)
	if a.TopK != nil && b.TopK != nil && requests > 0 {
		m["index.topk_visited_per_req"] = float64(b.TopK.Visited-a.TopK.Visited) / float64(requests)
	}
	if a.Sharding != nil && b.Sharding != nil {
		if n := b.Sharding.Searches - a.Sharding.Searches; n > 0 {
			m["coordinator.max_shard_us"] = float64(b.Sharding.MaxShardMicrosTotal-a.Sharding.MaxShardMicrosTotal) / float64(n)
			m["coordinator.merge_us"] = float64(b.Sharding.MergeMicrosTotal-a.Sharding.MergeMicrosTotal) / float64(n)
		}
		m["coordinator.retries"] = float64(b.Sharding.Retries - a.Sharding.Retries)
		m["coordinator.failovers"] = float64(b.Sharding.Failovers - a.Sharding.Failovers)
		m["coordinator.hedges"] = float64(b.Sharding.Hedges - a.Sharding.Hedges)
	}
}

// storeTimes opens the state file afresh a few times — map, bind, first
// query — and records the medians as the store.* metrics.
func (e *env) storeTimes(m values, lib *library, first request) error {
	var open, bind, query []float64
	for i := 0; i < 5; i++ {
		l, t, err := openLibrary(lib.cfg, lib.onto, lib.corpus, e.statePath)
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = l.run(context.Background(), first, search.Options{Limit: first.Limit})
		firstQuery := time.Since(t0)
		l.close()
		if err != nil {
			return err
		}
		open = append(open, float64(t.open)/1e3)
		bind = append(bind, float64(t.bind)/1e3)
		query = append(query, float64(firstQuery)/1e3)
	}
	m["store.open_us"], m["store.bind_us"], m["store.first_query_us"] = stats.Median(open), stats.Median(bind), stats.Median(query)
	return nil
}
