//go:build !unix

package buildstats

import "time"

// processCPU is not measured on this platform: stages record no CPU time
// and the summary omits the column.
func processCPU() time.Duration { return 0 }
