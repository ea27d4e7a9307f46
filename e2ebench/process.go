package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// procSample is a snapshot of the process counters a phase is charged
// with. The servers run in this process, so every layer's CPU and
// allocations are in it.
type procSample struct {
	cpu            time.Duration // user + system
	mallocs, bytes uint64
	// gcCPU and usedCPU are the runtime's estimates, in CPU-seconds, of
	// time spent collecting garbage and of all non-idle time.
	gcCPU, usedCPU float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readProcess() procSample {
	s := procSample{cpu: processCPU()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.bytes = ms.Mallocs, ms.TotalAlloc
	metrics.Read(cpuMetrics)
	s.gcCPU = cpuMetrics[0].Value.Float64()
	s.usedCPU = cpuMetrics[1].Value.Float64() - cpuMetrics[2].Value.Float64()
	return s
}

func (s procSample) since(base procSample) procSample {
	return procSample{
		cpu:     s.cpu - base.cpu,
		mallocs: s.mallocs - base.mallocs,
		bytes:   s.bytes - base.bytes,
		gcCPU:   s.gcCPU - base.gcCPU,
		usedCPU: s.usedCPU - base.usedCPU,
	}
}

// liveHeapMB is the live heap after a full collection, in MB.
func liveHeapMB() float64 {
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// cpuTick is the process CPU time used by a moment of a phase.
type cpuTick struct {
	at  time.Time
	cpu time.Duration
}

// cpuSampler records the process CPU time every 100ms until stopped.
type cpuSampler struct {
	ticks []cpuTick
	stop  chan struct{}
	done  chan struct{}
}

func startCPUSampler() *cpuSampler {
	s := &cpuSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.ticks = append(s.ticks, cpuTick{time.Now(), processCPU()})
	go func() {
		defer close(s.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case now := <-t.C:
				s.ticks = append(s.ticks, cpuTick{now, processCPU()})
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its ticks, ending with one taken
// now.
func (s *cpuSampler) finish() []cpuTick {
	close(s.stop)
	<-s.done
	return append(s.ticks, cpuTick{time.Now(), processCPU()})
}

// cpuAt is the CPU time of the last tick at or before t.
func cpuAt(ticks []cpuTick, t time.Time) time.Duration {
	c := ticks[0].cpu
	for _, k := range ticks {
		if k.at.After(t) {
			break
		}
		c = k.cpu
	}
	return c
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phaseResult is what one measured phase produced.
type phaseResult struct {
	start     time.Time
	ticks     []cpuTick
	done      []time.Time     // when each timed op completed
	lat       []time.Duration // per timed op
	attempted int
	failed    int // ops or checks that failed
	failures  []string
	notes     []string // checks a phase was too short to make
	degraded  int
	// lostTraces counts traced ops left out of the breakdown because the
	// program's collector did not retain their tree.
	lostTraces int
	wall       time.Duration
	process    procSample

	conformError float64 // fleet: mean relative error of oversubscribed NPGs' conforming aggregate
	keys         int     // fleet: entries in the rate store at the end
	agility      *agilityExtras
}

// violation counts a failed end-of-run check.
func (pr *phaseResult) violation(msg string) {
	pr.failed++
	if len(pr.failures) < 10 {
		pr.failures = append(pr.failures, msg)
	}
}

// provenance records where and from what a result came.
func provenance(workload string, seed int64, hash string) map[string]interface{} {
	return map[string]interface{}{
		"workload":   workload,
		"seed":       seed,
		"input_hash": hash,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"cpu_model":  cpuModel(),
		"commit":     commit(),
	}
}

// cpuModel reads the kernel's CPU description; "unknown" where there is
// none.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
