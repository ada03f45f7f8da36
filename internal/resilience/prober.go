package resilience

import (
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Prober defaults.
const (
	DefaultProbeInterval = 500 * time.Millisecond
	DefaultProbeTimeout  = time.Second
	DefaultProbePath     = "/healthz"
)

// ProberConfig tunes a Prober. Zero values take the defaults above.
type ProberConfig struct {
	// Interval is the time between probes of one backend.
	Interval time.Duration
	// Timeout bounds each probe request.
	Timeout time.Duration
	// Path is the endpoint probed on every backend.
	Path string
	// OnProbe, when set, observes every probe outcome — the coordinator
	// feeds breaker state with it. Called from the prober goroutines.
	OnProbe func(i int, ok bool)
}

func (c ProberConfig) withDefaults() ProberConfig {
	if c.Interval <= 0 {
		c.Interval = DefaultProbeInterval
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultProbeTimeout
	}
	if c.Path == "" {
		c.Path = DefaultProbePath
	}
	return c
}

// Prober actively health-checks a fixed set of backend base URLs, one
// goroutine per backend, and publishes the latest per-backend verdict.
// A backend is healthy when its probe endpoint answers 200 within the
// probe timeout. Backends start out healthy — selection must not shun
// every replica before the first probe has even run — and flip on the
// first completed probe.
type Prober struct {
	cfg     ProberConfig
	client  *http.Client
	urls    []string
	healthy []atomic.Bool
	stop    chan struct{}
	wg      sync.WaitGroup
}

// NewProber starts probing the given base URLs. client may be nil (a
// dedicated client is used). Close must be called to stop the goroutines.
func NewProber(urls []string, cfg ProberConfig, client *http.Client) *Prober {
	if client == nil {
		client = &http.Client{}
	}
	p := &Prober{
		cfg:     cfg.withDefaults(),
		client:  client,
		urls:    urls,
		healthy: make([]atomic.Bool, len(urls)),
		stop:    make(chan struct{}),
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
	t := time.NewTicker(p.cfg.Interval)
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
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.Timeout)
	defer cancel()
	ok := false
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.urls[i]+p.cfg.Path, nil)
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
	if p.cfg.OnProbe != nil {
		p.cfg.OnProbe(i, ok)
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
