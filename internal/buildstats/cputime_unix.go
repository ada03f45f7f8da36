//go:build unix

package buildstats

import (
	"syscall"
	"time"
)

// processCPU returns the user and system CPU time the process has used so
// far, 0 when the kernel will not say.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
