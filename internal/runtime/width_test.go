package runtime

import (
	goruntime "runtime"
	"testing"
)

// TestKernelWidthSharesTheCores: a solve task's kernel width is the
// cores shared out over the solve workers - the whole machine at one
// worker, never below one goroutine - so workers times width never
// exceeds GOMAXPROCS once there are at most GOMAXPROCS workers.
func TestKernelWidthSharesTheCores(t *testing.T) {
	procs := goruntime.GOMAXPROCS(0)
	if got := (Config{SolveWorkers: 1}).KernelWidth(); got != procs {
		t.Fatalf("1 worker: width %d, want GOMAXPROCS %d", got, procs)
	}
	for _, workers := range []int{2, 3, procs, 2 * procs, 64} {
		got := (Config{SolveWorkers: workers}).KernelWidth()
		if got < 1 || (workers <= procs && workers*got > procs) || got != max(1, procs/workers) {
			t.Fatalf("%d workers: width %d on %d procs", workers, got, procs)
		}
	}
	if got, want := (Config{}).KernelWidth(), max(1, procs/goruntime.NumCPU()); got != want {
		t.Fatalf("default pool: width %d, want %d", got, want)
	}
}
