//go:build linux

package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one child process of the benchmark. Its stdout and stderr (one
// access-log line per request) go to files, never to an undrained pipe.
type proc struct {
	name    string
	cmd     *exec.Cmd
	outPath string
	done    chan struct{} // closed once Wait has returned
	waitErr error
}

// procSet owns every child process, so one call stops them all on exit, on
// a failed run and on SIGINT.
type procSet struct {
	bin, outDir string
	mu          sync.Mutex
	procs       []*proc
}

// spawn starts the ctxsearch binary in its own process group, so that a
// kill reaches anything it forks.
func (ps *procSet) spawn(name string, args ...string) (*proc, error) {
	outPath := filepath.Join(ps.outDir, name+".out")
	out, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	defer out.Close()
	logf, err := os.Create(filepath.Join(ps.outDir, name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(ps.bin, args...)
	cmd.Stdout, cmd.Stderr = out, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, outPath: outPath, done: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.done)
	}()
	ps.mu.Lock()
	ps.procs = append(ps.procs, p)
	ps.mu.Unlock()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// listenAddr waits for the "listening on" line a server prints once its
// port is bound (-addr 127.0.0.1:0 lets the kernel choose the port).
func (p *proc) listenAddr(timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		data, err := os.ReadFile(p.outPath)
		if err != nil {
			return "", err
		}
		// The last element is an incomplete line (or empty): skip it.
		lines := strings.Split(string(data), "\n")
		for _, line := range lines[:len(lines)-1] {
			if addr, ok := strings.CutPrefix(line, "listening on "); ok {
				return strings.TrimSpace(addr), nil
			}
		}
		if p.exited() {
			return "", fmt.Errorf("%s exited before listening: %v (see %s)", p.name, p.waitErr, p.outPath)
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s did not print its listen address within %s", p.name, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitReady polls base/readyz until it answers 200.
func (p *proc) waitReady(client *http.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if p.exited() {
			return fmt.Errorf("%s exited before it was ready: %v", p.name, p.waitErr)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within %s", p.name, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// dead returns a child that has exited although nobody stopped it.
func (ps *procSet) dead() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, p := range ps.procs {
		if p.exited() {
			return fmt.Errorf("child %s died mid-run: %v", p.name, p.waitErr)
		}
	}
	return nil
}

// stopAll terminates every child's process group and waits until each has
// ended: SIGTERM first (the servers drain), SIGKILL after three seconds.
func (ps *procSet) stopAll() {
	ps.mu.Lock()
	procs := ps.procs
	ps.procs = nil
	ps.mu.Unlock()
	for _, p := range procs {
		_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGTERM)
	}
	for _, p := range procs {
		select {
		case <-p.done:
		case <-time.After(3 * time.Second):
			_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
			<-p.done
		}
	}
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat; it
// is 100 on every Linux port Go supports.
const clockTick = 100

// cpuSeconds returns utime+stime of a process from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces and parentheses: fields are counted
	// from the last ')'. utime and stime are fields 14 and 15 of the line.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat times", pid)
	}
	return (ut + st) / clockTick, nil
}

// pssMB returns the proportional set size of a process in MB (10^6 bytes)
// from /proc/<pid>/smaps_rollup: pages shared through the mapped state file
// are split between the processes mapping them.
func pssMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/smaps_rollup", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "Pss:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no Pss line in /proc/%d/smaps_rollup", pid)
}

// selfCPUSeconds returns this process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostCPU reads the aggregate line of /proc/stat: total and stolen jiffies.
func hostCPU() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		// guest and guest_nice (fields 9, 10) are already inside user/nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
