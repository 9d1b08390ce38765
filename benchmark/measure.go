package main

import (
	"runtime"
	"syscall"
	"time"
)

// counters is a snapshot of the process-wide allocation and collection
// counts a round is charged with. Host and in-process nodes share the
// process, so both are counted.
type counters struct {
	mallocs   uint64
	allocB    uint64
	gcCycles  uint32
	gcPauseNS uint64
}

// readCounters stops the world (runtime.ReadMemStats flushes the per-P
// allocation caches, which is what makes the allocation counts exact), so
// callers keep it outside the interval they time.
func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		mallocs:   ms.Mallocs,
		allocB:    ms.TotalAlloc,
		gcCycles:  ms.NumGC,
		gcPauseNS: ms.PauseTotalNs,
	}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) only fails on a bad pointer or selector.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// liveHeapMB forces the garbage out (twice, so finalizer-held and
// sync.Pool-held memory goes too) and reports what is still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
