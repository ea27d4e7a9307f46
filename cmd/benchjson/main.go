// Command benchjson measures the repo's hot paths and writes the
// perf-trajectory files.
//
// BENCH_risk.json: cold vs warm (replay) vs delta (spliced re-assessment
// after a failure-probability mutation on ~10% of links) Assess p50 latency,
// plus allocator ns/op and allocs/op.
//
// BENCH_slo.json: the conformance plane — flight-recorder Record ns/op,
// engine Evaluate p50 at drill fan-in, incident black-box span append ns/op
// (armed and disarmed), and the wall-clock to replay a freshly captured
// incident byte-identically.
//
// BENCH_trace.json: the tracing spine's hot path — span start and finish
// ns/op against the 200ns-per-half budget, traceparent encode/parse, and
// full-tree assembly wall time.
//
// BENCH_wire.json: the schema-binary payload codec vs a JSON reference —
// encode/decode ns/op and allocs/op — plus the full socket-level kvstore
// publish round trip through the binary envelope.
//
// Run via `make bench-json`; future re-anchors read the speed curves from the
// JSON instead of prose claims.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"entitlement/internal/flow"
	"entitlement/internal/obs/trace"
	"entitlement/internal/risk"
	"entitlement/internal/slo"
	"entitlement/internal/topology"
)

type assessBench struct {
	ColdP50Ns  int64 `json:"cold_p50_ns"`
	WarmP50Ns  int64 `json:"warm_p50_ns"`
	DeltaP50Ns int64 `json:"delta_p50_ns"`
	// DeltaSpeedupOverCold is cold_p50 / delta_p50; TestDeltaSpeedup pins
	// this ratio >= 10 in CI.
	DeltaSpeedupOverCold float64 `json:"delta_speedup_over_cold"`
	WarmSpeedupOverCold  float64 `json:"warm_speedup_over_cold"`
	// DeltaResimulated / TotalSlots is the work ratio behind the speedup.
	DeltaResimulated int `json:"delta_resimulated_scenarios"`
	TotalSlots       int `json:"total_scenario_slots"`
}

type allocateBench struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

type report struct {
	GeneratedBy string        `json:"generated_by"`
	Workload    workload      `json:"workload"`
	Assess      assessBench   `json:"assess"`
	Allocate    allocateBench `json:"allocate"`
}

type workload struct {
	Regions       int `json:"regions"`
	Links         int `json:"links"`
	Demands       int `json:"demands"`
	Scenarios     int `json:"scenarios"`
	MutatedLinks  int `json:"mutated_links"`
	AssessSamples int `json:"assess_timing_samples"`
}

func main() {
	out := flag.String("out", "BENCH_risk.json", "risk output path")
	sloOut := flag.String("slo-out", "BENCH_slo.json", "SLO/black-box output path (empty skips)")
	traceOut := flag.String("trace-out", "BENCH_trace.json", "tracing-spine output path (empty skips)")
	wireOut := flag.String("wire-out", "BENCH_wire.json", "wire-codec output path (empty skips)")
	samples := flag.Int("samples", 15, "timing samples per assess variant (p50 reported)")
	scenarios := flag.Int("scenarios", 400, "failure scenarios per assessment")
	flag.Parse()
	if err := run(*out, *samples, *scenarios); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *sloOut != "" {
		if err := runSLO(*sloOut, *samples); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: slo: %v\n", err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		if err := runTrace(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: trace: %v\n", err)
			os.Exit(1)
		}
	}
	if *wireOut != "" {
		if err := runWire(*wireOut); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: wire: %v\n", err)
			os.Exit(1)
		}
	}
}

func run(out string, samples, scenarios int) error {
	topo, err := topology.Backbone(topology.DefaultBackboneOptions())
	if err != nil {
		return err
	}
	regions := topo.RegionsSorted()
	demands := make([]flow.Demand, 0, 8)
	for i := 0; i < 8; i++ {
		src := regions[i%len(regions)]
		dst := regions[(i+3)%len(regions)]
		demands = append(demands, flow.Demand{
			Key: string(src) + ">" + string(dst) + string(rune('a'+i)),
			Src: src, Dst: dst, Rate: 400e9, Class: i % 4,
		})
	}
	opts := risk.Options{Scenarios: scenarios, Seed: 3, Workers: 1}
	nTouch := topo.NumLinks() / 10
	if nTouch < 1 {
		nTouch = 1
	}

	var colds, warms, deltas []time.Duration
	var lastDelta *risk.Result
	for s := 0; s < samples; s++ {
		// Cold: no cache at all.
		start := time.Now()
		if _, err := risk.Assess(topo, demands, opts); err != nil {
			return err
		}
		colds = append(colds, time.Since(start))

		// Warm: fill a fresh cache, then time the pure replay.
		cached := opts
		cached.Cache = risk.NewResultCache(2)
		if _, err := risk.Assess(topo, demands, cached); err != nil {
			return err
		}
		start = time.Now()
		if _, err := risk.Assess(topo, demands, cached); err != nil {
			return err
		}
		warms = append(warms, time.Since(start))

		// Delta: mutate FailProb on ~10% of links, time the spliced pass.
		p := 0.002 + 0.001*float64(s%8+1)
		for l := 0; l < nTouch; l++ {
			if err := topo.SetLinkFailProb((s*nTouch+l)%topo.NumLinks(), p); err != nil {
				return err
			}
		}
		start = time.Now()
		res, err := risk.Assess(topo, demands, cached)
		if err != nil {
			return err
		}
		deltas = append(deltas, time.Since(start))
		lastDelta = res
	}

	alloc := testing.Benchmark(func(b *testing.B) {
		runner := flow.NewRunner(topo)
		state := topo.SampleFailureAt(opts.Seed, 1)
		fd := make([]flow.Demand, len(demands))
		copy(fd, demands)
		var admitted []float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			admitted = runner.AllocateInto(state, fd, flow.AllocateOptions{}, admitted)
		}
	})

	coldP50, warmP50, deltaP50 := p50(colds), p50(warms), p50(deltas)
	rep := report{
		GeneratedBy: "make bench-json (cmd/benchjson)",
		Workload: workload{
			Regions: topo.NumRegions(), Links: topo.NumLinks(),
			Demands: len(demands), Scenarios: scenarios,
			MutatedLinks: nTouch, AssessSamples: samples,
		},
		Assess: assessBench{
			ColdP50Ns:            coldP50.Nanoseconds(),
			WarmP50Ns:            warmP50.Nanoseconds(),
			DeltaP50Ns:           deltaP50.Nanoseconds(),
			DeltaSpeedupOverCold: round1(float64(coldP50) / float64(deltaP50)),
			WarmSpeedupOverCold:  round1(float64(coldP50) / float64(warmP50)),
			DeltaResimulated:     lastDelta.Resimulated,
			TotalSlots:           lastDelta.Resimulated + lastDelta.Spliced,
		},
		Allocate: allocateBench{
			NsPerOp:     alloc.NsPerOp(),
			AllocsPerOp: alloc.AllocsPerOp(),
			BytesPerOp:  alloc.AllocedBytesPerOp(),
		},
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: cold p50 %v, warm p50 %v, delta p50 %v (%.1fx), allocate %d ns/op %d allocs/op\n",
		out, coldP50, warmP50, deltaP50, float64(coldP50)/float64(deltaP50),
		alloc.NsPerOp(), alloc.AllocsPerOp())
	return nil
}

// --- BENCH_slo.json: the conformance plane and the incident black box. ---

type sloBench struct {
	// RecordNsPerOp is the lock-free flight-recorder append every
	// enforcement cycle pays; the <100ns guard lives in BenchmarkSLORecord.
	RecordNsPerOp     int64 `json:"record_ns_per_op"`
	RecordAllocsPerOp int64 `json:"record_allocs_per_op"`
	// EvaluateP50Ns is one engine evaluation pass at drill fan-in (41 series,
	// one fresh sample each).
	EvaluateP50Ns int64 `json:"evaluate_p50_ns"`
	// BlackboxAppendNsPerOp is the armed-path RecordSpan cost — the
	// per-cycle tax while an incident capture is in flight. The <200ns
	// guard lives in BenchmarkBlackboxAppend.
	BlackboxAppendNsPerOp int64 `json:"blackbox_append_ns_per_op"`
	// BlackboxAppendDisarmedNsPerOp is the quiescent ring write paid when no
	// incident is armed.
	BlackboxAppendDisarmedNsPerOp int64 `json:"blackbox_append_disarmed_ns_per_op"`
	// ReplayWallNs is the wall-clock to read a freshly captured incident
	// back from disk and re-drive it through the engine byte-identically.
	ReplayWallNs    int64 `json:"replay_wall_ns"`
	ReplaySamples   int   `json:"replay_samples"`
	ReplayEvals     int   `json:"replay_evals"`
	ReplayIdentical bool  `json:"replay_identical"`
}

type sloWorkload struct {
	EvaluateSeries  int `json:"evaluate_series"`
	EvaluateSamples int `json:"evaluate_timing_samples"`
	IncidentTicks   int `json:"incident_capture_ticks"`
}

type sloReport struct {
	GeneratedBy string      `json:"generated_by"`
	Workload    sloWorkload `json:"workload"`
	SLO         sloBench    `json:"slo"`
}

func runSLO(out string, samples int) error {
	rec := slo.NewRecorder(slo.DefaultRingCapacity)
	s := rec.Series(slo.Key{Contract: "Coldstorage", Segment: "TEST/cold-000", Class: "c4_low"})
	sm := slo.Sample{At: time.Unix(1700000000, 0), Granted: 1e12, Used: 9e11, Overage: 1e11}
	record := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Record(sm)
		}
	})

	// Evaluate p50 at drill fan-in: 41 series × one fresh sample per pass.
	const nSeries = 41
	erec := slo.NewRecorder(slo.DefaultRingCapacity)
	eng := slo.NewEngine(erec, slo.Options{})
	eng.SetObjective("Coldstorage", 0.999)
	series := make([]*slo.Series, nSeries)
	for i := range series {
		series[i] = erec.Series(slo.Key{Contract: "Coldstorage", Segment: fmt.Sprintf("TEST/cold-%03d", i), Class: "c4_low"})
	}
	base := time.Unix(1700000000, 0)
	var evals []time.Duration
	for i := 0; i < samples*20; i++ {
		at := base.Add(time.Duration(i) * time.Second)
		for _, sr := range series {
			sr.Record(slo.Sample{At: at, Granted: 1e12, Used: 9e11})
		}
		start := time.Now()
		eng.Evaluate(at)
		evals = append(evals, time.Since(start))
	}

	// Black-box span append, armed and disarmed. Arming goes through the
	// real lifecycle: a throttled burst fires the burn-rate alerts.
	dir, err := os.MkdirTemp("", "benchjson-slo-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ticks, bb, bbeng, bbrec, now, err := captureIncident(dir, false)
	if err != nil {
		return err
	}
	if !bb.Armed() {
		return fmt.Errorf("incident drive did not arm the black box")
	}
	sp := slo.CycleSpan{At: now, Host: "cold-000", Contract: "Coldstorage", TraceID: "cold-000-c42", Enforced: 1e12}
	armed := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if i%4096 == 0 {
				// Flush the buffered batch outside the timer, as the next
				// evaluation would.
				b.StopTimer()
				now = now.Add(time.Second)
				bbrec.Series(slo.Key{Contract: "Coldstorage", Segment: "TEST/net", Class: "c4_low"}).
					Record(slo.Sample{At: now, Granted: 1e9, Used: 5e8, Throttled: 5e8})
				bbeng.Evaluate(now)
				b.StartTimer()
			}
			bb.RecordSpan(sp)
		}
	})
	disarmedBB, err := slo.NewBlackbox(slo.BlackboxOptions{Dir: dir + "/disarmed"})
	if err != nil {
		return err
	}
	disarmed := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			disarmedBB.RecordSpan(sp)
		}
	})

	// Replay wall-clock over a complete (closed) incident capture.
	replayDir := dir + "/replay"
	if ticks, _, _, _, _, err = captureIncident(replayDir, true); err != nil {
		return err
	}
	caps, err := slo.ListCaptures(replayDir)
	if err != nil || len(caps) != 1 {
		return fmt.Errorf("incident drive left %d captures: %v", len(caps), err)
	}
	start := time.Now()
	c, err := slo.ReadCapture(caps[0])
	if err != nil {
		return err
	}
	res, err := c.Replay()
	if err != nil {
		return err
	}
	replayWall := time.Since(start)

	rep := sloReport{
		GeneratedBy: "make bench-json (cmd/benchjson)",
		Workload: sloWorkload{
			EvaluateSeries:  nSeries,
			EvaluateSamples: len(evals),
			IncidentTicks:   ticks,
		},
		SLO: sloBench{
			RecordNsPerOp:                 record.NsPerOp(),
			RecordAllocsPerOp:             record.AllocsPerOp(),
			EvaluateP50Ns:                 p50(evals).Nanoseconds(),
			BlackboxAppendNsPerOp:         armed.NsPerOp(),
			BlackboxAppendDisarmedNsPerOp: disarmed.NsPerOp(),
			ReplayWallNs:                  replayWall.Nanoseconds(),
			ReplaySamples:                 res.Samples,
			ReplayEvals:                   res.Evals,
			ReplayIdentical:               res.Identical,
		},
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: record %d ns/op, evaluate p50 %v, blackbox append %d ns/op (disarmed %d), replay %v (identical=%v)\n",
		out, record.NsPerOp(), p50(evals), armed.NsPerOp(), disarmed.NsPerOp(), replayWall, res.Identical)
	return nil
}

// captureIncident drives a synthetic SLO incident (good traffic, a throttled
// burst, recovery) through an engine with a black box attached. With
// toClose=false it stops while still armed; with toClose=true it runs until
// hysteresis closes the incident, leaving one finished capture in dir.
func captureIncident(dir string, toClose bool) (int, *slo.Blackbox, *slo.Engine, *slo.Recorder, time.Time, error) {
	rec := slo.NewRecorder(slo.DefaultRingCapacity)
	eng := slo.NewEngine(rec, slo.Options{Windows: slo.Windows{
		Fast: 10 * time.Second, FastLong: 20 * time.Second,
		Slow: 30 * time.Second, SlowLong: 60 * time.Second,
	}})
	eng.SetObjective("Coldstorage", 0.999)
	bb, err := slo.NewBlackbox(slo.BlackboxOptions{Dir: dir})
	if err != nil {
		return 0, nil, nil, nil, time.Time{}, err
	}
	eng.AttachCapture(bb)
	k := slo.Key{Contract: "Coldstorage", Segment: "TEST/net", Class: "c4_low"}
	now := time.Unix(1700000000, 0).UTC()
	ticks := 0
	tick := func(bad bool) {
		now = now.Add(time.Second)
		ticks++
		sm := slo.Sample{At: now, Granted: 1e9, Used: 1e9}
		if bad {
			sm.Used, sm.Throttled = 5e8, 5e8
		}
		rec.Series(k).Record(sm)
		bb.RecordSpan(slo.CycleSpan{At: now, Host: "cold-000", Contract: "Coldstorage", TraceID: "cold-000-c1"})
		eng.Evaluate(now)
	}
	for i := 0; i < 10; i++ {
		tick(false)
	}
	for i := 0; i < 5; i++ {
		tick(true)
	}
	if toClose {
		for i := 0; i < 300 && bb.Armed(); i++ {
			tick(false)
		}
		if bb.Armed() {
			return ticks, nil, nil, nil, now, fmt.Errorf("incident did not close")
		}
	}
	return ticks, bb, eng, rec, now, nil
}

// --- BENCH_trace.json: the distributed tracing spine's hot path. ---------

type traceBench struct {
	// SpanStartNsPerOp is one StartRoot: a clock read, an ID mint, one
	// allocation. Budget: 200ns (the guard lives in BenchmarkSpanStart).
	SpanStartNsPerOp     int64 `json:"span_start_ns_per_op"`
	SpanStartAllocsPerOp int64 `json:"span_start_allocs_per_op"`
	// SpanFinishNsPerOp is the finish half, derived as (start+finish pair)
	// minus the measured start: a monotonic clock read, the record staging
	// allocation, one atomic ring store. Budget: 200ns.
	SpanFinishNsPerOp int64 `json:"span_finish_ns_per_op"`
	// SpanPairNsPerOp is the measured start+finish round trip the derived
	// finish number comes from.
	SpanPairNsPerOp  int64 `json:"span_pair_ns_per_op"`
	ChildPairNsPerOp int64 `json:"child_pair_ns_per_op"`
	// Context codec: what every traced RPC pays to fill and read the wire
	// frame's traceparent field.
	ContextEncodeNsPerOp int64 `json:"context_encode_ns_per_op"`
	ContextParseNsPerOp  int64 `json:"context_parse_ns_per_op"`
	// TreeAssemblyNs is the wall-clock to flush and assemble one retained
	// trace of TreeSpans spans — the /debug/traces read path.
	TreeAssemblyNs int64 `json:"tree_assembly_ns"`
	TreeSpans      int   `json:"tree_spans"`
}

type traceReport struct {
	GeneratedBy string     `json:"generated_by"`
	BudgetNs    int64      `json:"budget_ns_per_half"`
	Trace       traceBench `json:"trace"`
}

func runTrace(out string) error {
	c := trace.NewCollector(trace.Options{Service: "bench"})
	var sink trace.Span
	start := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = c.StartRoot("bench")
		}
	})
	_ = sink
	pair := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := c.StartRoot("bench")
			sp.Finish()
		}
	})
	rootSp := c.StartRoot("parent")
	parent := rootSp.Context()
	childPair := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sp := c.StartChild(parent, "bench")
			sp.Finish()
		}
	})

	ctx := trace.Context{TraceHi: 0x1122334455667788, TraceLo: 0x99aabbccddeeff00, Span: 0xdeadbeefcafef00d, Sampled: true}
	var encSink string
	encode := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			encSink = ctx.String()
		}
	})
	encoded := ctx.String()
	_ = encSink
	var parseSink trace.Context
	parse := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parseSink, _ = trace.Parse(encoded)
		}
	})
	_ = parseSink

	// Tree assembly: one root with a realistic fan-out (the enforce cycle
	// shape: phases with wire RPC children), flushed and read back.
	tc := trace.NewCollector(trace.Options{Service: "bench"})
	root := tc.StartRoot("enforce.cycle")
	nSpans := 1
	for i := 0; i < 4; i++ {
		phase := tc.StartChild(root.Context(), fmt.Sprintf("phase.%d", i))
		for j := 0; j < 4; j++ {
			rpc := tc.StartChild(phase.Context(), "wire.call")
			rpc.Finish()
			nSpans++
		}
		phase.Finish()
		nSpans++
	}
	root.SetError(fmt.Errorf("retain me"))
	root.Finish()
	startT := time.Now()
	tc.Flush()
	tree, ok := tc.Tree(root.TraceID())
	assembly := time.Since(startT)
	if !ok || len(tree.Spans) != nSpans {
		return fmt.Errorf("tree assembly lost spans: ok=%v got %d want %d", ok, len(tree.Spans), nSpans)
	}

	finish := pair.NsPerOp() - start.NsPerOp()
	if finish < 0 {
		finish = 0
	}
	rep := traceReport{
		GeneratedBy: "make bench-json (cmd/benchjson)",
		BudgetNs:    200,
		Trace: traceBench{
			SpanStartNsPerOp:     start.NsPerOp(),
			SpanStartAllocsPerOp: start.AllocsPerOp(),
			SpanFinishNsPerOp:    finish,
			SpanPairNsPerOp:      pair.NsPerOp(),
			ChildPairNsPerOp:     childPair.NsPerOp(),
			ContextEncodeNsPerOp: encode.NsPerOp(),
			ContextParseNsPerOp:  parse.NsPerOp(),
			TreeAssemblyNs:       assembly.Nanoseconds(),
			TreeSpans:            nSpans,
		},
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: span start %d ns/op, finish %d ns/op (pair %d, budget 200/half), encode %d, parse %d, tree %v\n",
		out, start.NsPerOp(), finish, pair.NsPerOp(), encode.NsPerOp(), parse.NsPerOp(), assembly)
	return nil
}

func p50(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

func round1(x float64) float64 {
	return float64(int64(x*10+0.5)) / 10
}
