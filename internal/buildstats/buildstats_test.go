package buildstats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTimeRecordsStages(t *testing.T) {
	s := New(4)
	s.Time("analyze", 100, "papers", func() { time.Sleep(2 * time.Millisecond) })
	s.Time("index", 0, "", func() {})
	stages := s.Stages()
	if len(stages) != 2 {
		t.Fatalf("got %d stages, want 2", len(stages))
	}
	if stages[0].Name != "analyze" || stages[0].Items != 100 || stages[0].Unit != "papers" {
		t.Fatalf("bad first stage: %+v", stages[0])
	}
	if stages[0].Duration <= 0 {
		t.Fatal("stage duration not measured")
	}
	if s.Total() < stages[0].Duration {
		t.Fatal("total below first stage duration")
	}
	if s.Workers() != 4 {
		t.Fatalf("workers = %d, want 4", s.Workers())
	}
}

func TestRate(t *testing.T) {
	st := Stage{Items: 500, Duration: time.Second}
	if r := st.Rate(); r != 500 {
		t.Fatalf("rate = %v, want 500", r)
	}
	if (Stage{}).Rate() != 0 {
		t.Fatal("zero stage should have zero rate")
	}
}

func TestPeakGoroutinesObserved(t *testing.T) {
	s := New(2)
	s.Time("fanout", 0, "", func() {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(8 * time.Millisecond)
			}()
		}
		wg.Wait()
	})
	if s.PeakGoroutines() < 2 {
		t.Fatalf("peak goroutines = %d, expected the sampler to see the fan-out", s.PeakGoroutines())
	}
}

func TestSummaryMentionsStagesAndWorkers(t *testing.T) {
	s := New(8)
	s.Time("analyze", 42, "papers", func() {})
	got := s.Summary()
	for _, want := range []string{"analyze", "papers", "workers 8", "total"} {
		if !strings.Contains(got, want) {
			t.Fatalf("summary missing %q:\n%s", want, got)
		}
	}
}

func TestAddFirstListsStageFirstAndCountsIt(t *testing.T) {
	s := New(1)
	s.Add("analyze", 3*time.Millisecond, 10, "papers")
	s.AddFirst("generate", 2*time.Millisecond, 10, "papers")
	if st := s.Stages(); len(st) != 2 || st[0].Name != "generate" || st[1].Name != "analyze" {
		t.Fatalf("stages = %+v, want generate then analyze", st)
	}
	if s.Total() != 5*time.Millisecond {
		t.Fatalf("total = %v, want 5ms", s.Total())
	}
}

func TestNilStatsIsSafe(t *testing.T) {
	var s *Stats
	ran := false
	s.Time("x", 0, "", func() { ran = true })
	if !ran {
		t.Fatal("nil Stats must still run fn")
	}
	s.AddFirst("y", time.Millisecond, 0, "")
}

func TestConcurrentTime(t *testing.T) {
	s := New(4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Time("stage", 1, "items", func() {})
		}()
	}
	wg.Wait()
	if len(s.Stages()) != 8 {
		t.Fatalf("got %d stages, want 8", len(s.Stages()))
	}
}

// TestTimeRecordsCPU: a stage that keeps the CPU busy records CPU time, and
// the summary shows it after the columns that were there before — the
// serving benchmark reads a stage line's first two fields as name and
// duration.
func TestTimeRecordsCPU(t *testing.T) {
	if processCPU() == 0 {
		t.Skip("process CPU time is not measured on this platform")
	}
	s := New(2)
	s.Time("spin", 7, "papers", func() {
		for start := time.Now(); time.Since(start) < 30*time.Millisecond; {
		}
	})
	s.Add("state-map", time.Millisecond, 0, "")
	st := s.Stages()
	if st[0].CPU <= 0 || st[0].parallelism() <= 0 {
		t.Fatalf("busy stage recorded CPU %v", st[0].CPU)
	}
	if st[1].CPU != 0 || st[1].parallelism() != 0 {
		t.Fatalf("a stage added with its own timing claims CPU %v", st[1].CPU)
	}
	lines := strings.Split(s.Summary(), "\n")
	spin, added := lines[1], lines[2]
	f := strings.Fields(spin)
	if d, err := time.ParseDuration(f[1]); f[0] != "spin" || err != nil || d <= 0 {
		t.Fatalf("leading fields of %q are not name and duration", spin)
	}
	if i, j := strings.Index(spin, "papers/s"), strings.Index(spin, "cpu "); i < 0 || j < i || !strings.HasSuffix(spin, "×") {
		t.Fatalf("cpu column is not last in %q", spin)
	}
	if strings.Contains(added, "cpu") {
		t.Fatalf("stage without CPU time shows the column: %q", added)
	}
}
