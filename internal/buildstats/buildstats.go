// Package buildstats records wall-clock timing for the stages of the
// offline build pipeline (corpus analysis, index construction, context-set
// assembly, prestige scoring) so cold-start cost is observable: the
// ctxsearch CLI prints the summary under `build -v`, and `serve` logs it
// when the background engine build completes.
package buildstats

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"
)

// Stage is one timed step of the build.
type Stage struct {
	// Name identifies the stage ("analyze", "index", "score-text", ...).
	Name string
	// Duration is the stage's wall-clock time.
	Duration time.Duration
	// Items is how many units of work the stage processed (papers,
	// contexts); 0 when the stage is not item-based.
	Items int
	// Unit names the items ("papers", "contexts"); empty suppresses the
	// throughput column.
	Unit string
	// CPU is the CPU time the whole process used while the stage ran — so
	// two stages timed at once each count the other's — and 0 for a stage
	// recorded by Add/AddFirst or on a platform that does not measure it.
	CPU time.Duration
}

// parallelism returns how many CPUs the stage kept busy on average, CPU
// time over wall time: near the worker count for a stage that scales, near
// 1 for one that serialises on a lock or the collector. 0 when either time
// is missing.
func (s Stage) parallelism() float64 {
	if s.CPU <= 0 || s.Duration <= 0 {
		return 0
	}
	return s.CPU.Seconds() / s.Duration.Seconds()
}

// Rate returns the stage's throughput in items per second (0 when the
// stage has no items or took no measurable time).
func (s Stage) Rate() float64 {
	if s.Items == 0 || s.Duration <= 0 {
		return 0
	}
	return float64(s.Items) / s.Duration.Seconds()
}

// Stats accumulates build stages. Construct with New; Time is safe for
// concurrent use (stages run by different goroutines append under a lock).
type Stats struct {
	workers int

	mu     sync.Mutex
	stages []Stage
	peak   int
}

// New returns an empty Stats for a build running with the given effective
// worker count.
func New(workers int) *Stats {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Stats{workers: workers}
}

// Time measures fn as one stage: its wall time and the process CPU time
// spent meanwhile. items/unit feed the throughput column of the summary
// (pass 0/"" for stages without a natural item count). While fn runs, the
// goroutine count is sampled so the summary can report the peak fan-out
// actually reached.
func (s *Stats) Time(name string, items int, unit string, fn func()) {
	if s == nil {
		fn()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			s.observeGoroutines()
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	cpu0 := processCPU()
	start := time.Now()
	fn()
	d := time.Since(start)
	cpu := processCPU() - cpu0
	close(stop)
	<-done
	s.mu.Lock()
	s.stages = append(s.stages, Stage{Name: name, Duration: d, Items: items, Unit: unit, CPU: cpu})
	s.mu.Unlock()
}

// Add records a stage the caller timed itself — the shape cold-start
// instrumentation needs when the measured span (mapping a state file,
// flipping readiness) is not a single function call Time could wrap.
func (s *Stats) Add(name string, d time.Duration, items int, unit string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.stages = append(s.stages, Stage{Name: name, Duration: d, Items: items, Unit: unit})
	s.mu.Unlock()
}

// AddFirst is Add for a stage that ran before the Stats existed — producing
// the inputs the build was constructed from — and so is listed first.
func (s *Stats) AddFirst(name string, d time.Duration, items int, unit string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.stages = append([]Stage{{Name: name, Duration: d, Items: items, Unit: unit}}, s.stages...)
	s.mu.Unlock()
}

func (s *Stats) observeGoroutines() {
	n := runtime.NumGoroutine()
	s.mu.Lock()
	if n > s.peak {
		s.peak = n
	}
	s.mu.Unlock()
}

// Workers returns the effective worker count the build ran with.
func (s *Stats) Workers() int { return s.workers }

// PeakGoroutines returns the highest goroutine count sampled during any
// timed stage.
func (s *Stats) PeakGoroutines() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

// Stages returns a copy of the recorded stages in completion order.
func (s *Stats) Stages() []Stage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Stage(nil), s.stages...)
}

// Total returns the summed wall time of all recorded stages.
func (s *Stats) Total() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t time.Duration
	for _, st := range s.stages {
		t += st.Duration
	}
	return t
}

// Summary renders the multi-line human-readable report: one line per stage
// with wall time, throughput and — last, so that a reader of the leading
// columns is undisturbed — the CPUs it kept busy ("cpu 1.6×"; a stage that
// does not scale with the workers reads near 1×), then a total line with
// worker count and peak goroutines.
func (s *Stats) Summary() string {
	stages := s.Stages()
	var b strings.Builder
	b.WriteString("offline build stages:\n")
	width := 0
	for _, st := range stages {
		if len(st.Name) > width {
			width = len(st.Name)
		}
	}
	for _, st := range stages {
		fmt.Fprintf(&b, "  %-*s  %10s", width, st.Name, st.Duration.Round(time.Microsecond))
		if st.Items > 0 && st.Unit != "" {
			fmt.Fprintf(&b, "  %7d %s  %9.0f %s/s", st.Items, st.Unit, st.Rate(), st.Unit)
		}
		if par := st.parallelism(); par > 0 {
			fmt.Fprintf(&b, "  cpu %.1f×", par)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  %-*s  %10s  workers %d, peak goroutines %d",
		width, "total", s.Total().Round(time.Microsecond), s.Workers(), s.PeakGoroutines())
	return b.String()
}
