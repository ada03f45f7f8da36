package resilience

import (
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Every backend is probed at probePath, each probe bounded by probeTimeout.
const (
	probeTimeout = time.Second
	probePath    = "/healthz"
)

// Prober actively health-checks a fixed set of backend base URLs, one
// goroutine per backend, and publishes the latest per-backend verdict.
// A backend is healthy when its probePath answers 200 within probeTimeout.
// Backends start out healthy — selection must not shun every replica before
// the first probe has even run — and flip on the first completed probe.
type Prober struct {
	// interval is the time between probes of one backend; onProbe, when
	// set, observes every probe outcome — the coordinator feeds breaker
	// state with it. It is called from the prober goroutines.
	interval time.Duration
	onProbe  func(i int, ok bool)
	client   *http.Client
	urls     []string
	healthy  []atomic.Bool
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewProber starts probing the given base URLs every interval. client may be
// nil (a dedicated client is used). Close must be called to stop the
// goroutines.
func NewProber(urls []string, interval time.Duration, onProbe func(i int, ok bool), client *http.Client) *Prober {
	if client == nil {
		client = &http.Client{}
	}
	p := &Prober{
		interval: interval,
		onProbe:  onProbe,
		client:   client,
		urls:     urls,
		healthy:  make([]atomic.Bool, len(urls)),
		stop:     make(chan struct{}),
	}
	for i := range p.healthy {
		p.healthy[i].Store(true)
	}
	for i := range urls {
		p.wg.Add(1)
		go p.run(i)
	}
	return p
}

func (p *Prober) run(i int) {
	defer p.wg.Done()
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.probe(i)
		}
	}
}

// probe runs one health check of backend i and publishes the verdict.
func (p *Prober) probe(i int) bool {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	ok := false
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.urls[i]+probePath, nil)
	if err == nil {
		resp, derr := p.client.Do(req)
		if derr == nil {
			// Drain so the connection is reusable.
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
	}
	p.healthy[i].Store(ok)
	if p.onProbe != nil {
		p.onProbe(i, ok)
	}
	return ok
}

// Healthy reports backend i's latest probe verdict.
func (p *Prober) Healthy(i int) bool { return p.healthy[i].Load() }

// Close stops all probe goroutines and waits for them.
func (p *Prober) Close() {
	close(p.stop)
	p.wg.Wait()
}
