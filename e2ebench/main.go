// Command e2ebench is the repository's end-to-end benchmark. It runs the
// real servers in this process over loopback with the binary wire codec —
// grantd (granting Service and Server, journal in a temporary directory),
// the contract database, the rate store — and enforcement agents on dialed
// clients, drives one seeded workload, checks every output, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer breakdown of a
// separate traced run). README.md describes the workloads and metrics.
//
// Usage:
//
//	e2ebench -workload fleet-small|grant-agility -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. Any failed op or check makes the exit status non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// stack is one workload's servers, clients and drivers, set up and ready
// to run one measured phase.
type stack interface {
	run(d time.Duration) *phaseResult
	close()
}

// workload generates its inputs once and sets up stacks that drive them.
type workload struct {
	hash  string
	setup func(rec *recorder) (stack, error)
}

var workloadNames = []string{"fleet-small", "grant-agility"}

func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "fleet-small":
		npgs := genFleet(seed)
		return &workload{hash: inputHash(npgs), setup: func(rec *recorder) (stack, error) {
			return setupFleet(npgs, rec)
		}}, nil
	case "grant-agility":
		in := agilityInput{Seed: uint64(seed)}
		return &workload{hash: inputHash(in.prefix()), setup: func(rec *recorder) (stack, error) {
			return setupAgility(&in, rec)
		}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// An untraced run sets its stack up at least minSetups times and until
// setups have taken setupBudget, at most maxSetups times; setup_s is the
// median. Cheap set-ups (~25 ms) are repeated more, so their median rests
// on enough samples to repeat between runs.
const (
	minSetups   = 5
	maxSetups   = 41
	setupBudget = time.Second
)

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fleet-small or grant-agility")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "seconds of measurement (a traced run splits them between its two phases)")
	traced := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "e2ebench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	d := time.Duration(*seconds * float64(time.Second))
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	prov, _ := json.Marshal(map[string]interface{}{"provenance": provenance(*name, *seed, w.hash)})
	fmt.Fprintln(stdout, string(prov))

	res, err := measure(w, *name, d, *traced == 1, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	out, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the untraced phase (after its repeated set-ups) and, when
// traced, a traced phase on a fresh stack; the two then split d between
// them, so every run measures for d.
func measure(w *workload, name string, d time.Duration, traced bool, stdout, stderr io.Writer) (*result, error) {
	minReps, maxReps := minSetups, maxSetups
	if traced {
		minReps, maxReps, d = 1, 1, d/2
	}
	var setups []float64
	var spent time.Duration
	var st stack
	for {
		t0 := time.Now()
		var err error
		if st, err = w.setup(nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		took := time.Since(t0)
		setups, spent = append(setups, took.Seconds()), spent+took
		if len(setups) >= maxReps || (len(setups) >= minReps && spent >= setupBudget) {
			break
		}
		st.close()
	}
	runtime.GC()
	plain := st.run(d)
	e2e := endToEnd(plain, medianFloat(setups))
	// The live heap is read with the stack still up but without the
	// per-op records, whose size follows the op count, not the program.
	timed := len(plain.lat)
	plain.lat, plain.done, plain.ticks = nil, nil, nil
	e2e["heap_mb"] = liveHeapMB()
	st.close()
	report(stdout, stderr, "untraced", plain, timed, endToEndMetrics, e2e)
	res := &result{Attempted: plain.attempted, Failed: plain.failed}
	show, values := endToEndMetrics, e2e
	if traced {
		rec := newRecorder()
		tst, err := w.setup(rec)
		if err != nil {
			return nil, fmt.Errorf("traced setup: %w", err)
		}
		rec.reset()
		runtime.GC()
		tr := tst.run(d)
		tst.close()
		a := analyse(rec.spans, "op")
		show, values = perLayerMetrics, perLayer(plain, tr, a, e2e["op_p50_ms"])
		report(stdout, stderr, "traced", tr, len(tr.lat), perLayerMetrics, values)
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		path := filepath.Join(".bench_build", "traces", name+".jsonl.gz")
		if err := writeSpans(path, a); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(a.spans), path)
	}
	res.Correct = res.Failed == 0
	res.Metrics = make(map[string]metricJSON, len(show))
	for _, m := range show {
		res.Metrics[m.name] = metricJSON{Value: values[m.name], Unit: m.unit}
	}
	return res, nil
}

// report prints one phase's metrics by name and unit, how many of its n
// timed ops each window's p99 rests on, and its first failures.
func report(stdout, stderr io.Writer, phase string, pr *phaseResult, n int, ms []metric, values map[string]float64) {
	w := windowCount(n)
	fmt.Fprintf(stdout, "%s phase: %d ops attempted, %d failed, %.2fs; %d timed in %d windows, %d beyond each window's p99\n",
		phase, pr.attempted, pr.failed, pr.wall.Seconds(), n, w, beyond(n/w, 0.99))
	for _, m := range ms {
		fmt.Fprintf(stdout, "  %-40s %14.6g %s\n", m.name, values[m.name], m.unit)
	}
	if phase == "untraced" {
		fmt.Fprintf(stdout, "  %-40s %14.6g %s\n", "fail_frac", per(float64(pr.failed), pr.attempted), "ratio")
	}
	for _, n := range pr.notes {
		fmt.Fprintf(stdout, "  note: %s\n", n)
	}
	if pr.lostTraces > 0 {
		fmt.Fprintf(stdout, "  %d traced ops left out: their trees were not retained\n", pr.lostTraces)
	}
	for _, f := range pr.failures {
		fmt.Fprintf(stderr, "%s: FAIL %s\n", phase, f)
	}
}

// commit is the revision the binary was built from, when it was built
// inside a git checkout.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "+modified"
			}
		}
	}
	if rev == "" {
		return "unknown (not built from a git checkout)"
	}
	return rev + modified
}
