package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"entitlement/internal/approval"
	"entitlement/internal/contract"
	"entitlement/internal/enforce"
	"entitlement/internal/forecast"
	"entitlement/internal/hose"
	"entitlement/internal/risk"
	"entitlement/internal/stats"
	"entitlement/internal/timeseries"
	"entitlement/internal/topology"
	"entitlement/internal/traffic"
)

// --- Figures 18 & 19: forecast accuracy ------------------------------------

// ForecastAccuracy reproduces Figures 18/19: the CDF of per-service sMAPE at
// the p50/p75/p90 traffic percentiles. A fraction of services carry
// unannounced inorganic changes (region moves, rollout changes), producing
// the paper's anomalous sMAPE > 1 tail.
func ForecastAccuracy(class contract.Class, services int, seed int64) *Result {
	if services <= 0 {
		services = 24
	}
	rng := rand.New(rand.NewSource(seed))
	var p50s, p75s, p90s []float64
	for s := 0; s < services; s++ {
		base := 1e9 * (1 + rng.Float64()*50)
		raw := traffic.TrendSeasonal(traffic.GrowthOptions{
			Base:        base,
			DailyGrowth: base * (0.001 + 0.004*rng.Float64()),
			WeeklyAmp:   base * 0.1 * rng.Float64(),
			DiurnalAmp:  base * (0.1 + 0.3*rng.Float64()),
			Noise:       0.03 + 0.05*rng.Float64(),
			Days:        150,
			Step:        time.Hour,
			Seed:        seed*1000 + int64(s),
		})
		// ~1 in 8 services undergoes an unannounced change covering the
		// holdout: a new-region rollout multiplying demand, or a
		// decommission collapsing it — the paper's sMAPE > 1 anomalies.
		if s%8 == 7 {
			mult := 4.0
			if s%16 == 15 {
				mult = 0.1
			}
			cut := raw.Len() - raw.Len()/5
			for i := cut; i < raw.Len(); i++ {
				raw.Values[i] *= mult
			}
		}
		acc, err := forecast.EvaluateAccuracy(raw, 30, forecast.ProphetOptions{Changepoints: 4, WeeklyOrder: 2})
		if err != nil {
			panic(err)
		}
		p50s = append(p50s, acc.P50)
		p75s = append(p75s, acc.P75)
		p90s = append(p90s, acc.P90)
	}
	figure := "fig-18-forecast-accuracy-A"
	if class == contract.ClassB {
		figure = "fig-19-forecast-accuracy-B"
	}
	r := &Result{
		Name:    figure,
		Caption: fmt.Sprintf("sMAPE CDF across %d services, QoS %v", services, class),
	}
	for _, pc := range []struct {
		label string
		vals  []float64
	}{{"p50", p50s}, {"p75", p75s}, {"p90", p90s}} {
		cdf := stats.NewCDF(pc.vals)
		xs, ps := cdf.Points(minIntE(len(pc.vals), 40))
		r.addSeries("sMAPE "+pc.label, xs, ps)
	}
	all := append(append(append([]float64{}, p50s...), p75s...), p90s...)
	cdf := stats.NewCDF(all)
	r.metric("fraction_below_0.4", cdf.At(0.4))
	r.metric("median_smape", cdf.Quantile(0.5))
	r.metric("anomalies_above_1", float64(countAbove(all, 1)))
	return r
}

func countAbove(xs []float64, t float64) int {
	n := 0
	for _, x := range xs {
		if x > t {
			n++
		}
	}
	return n
}

func minIntE(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// --- Figures 20 & 21: segmented hose & coverage ------------------------------

// segmentationCase builds a hose with affinity-structured per-destination
// history and its two-segment split.
func segmentationCase(targets int, rate float64, seed int64) (general, segmented hose.Request, regions []topology.Region) {
	rng := rand.New(rand.NewSource(seed))
	regions = make([]topology.Region, targets)
	perDst := make(map[topology.Region]*timeseries.Series)
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	// Two affinity groups: traffic shifts within each group over time but
	// group totals are stable — the §4.2 deployment-driven structure.
	half := targets / 2
	for i := range regions {
		regions[i] = topology.Region(fmt.Sprintf("D%02d", i))
		n := 48
		vals := make([]float64, n)
		groupShare := 0.55
		groupSize := half
		if i >= half {
			groupShare = 0.45
			groupSize = targets - half
		}
		for t := 0; t < n; t++ {
			within := 1 + 0.5*rng.Float64()
			vals[t] = rate * groupShare / float64(groupSize) * within
		}
		perDst[regions[i]] = timeseries.New(start, time.Hour, vals)
	}
	general = hose.Request{
		NPG: "svc", Class: contract.ClassB, Region: "SRC",
		Direction: contract.Egress, Rate: rate,
	}
	segmented = hose.SegmentHose(general, perDst)
	return general, segmented, regions
}

// SegmentedHoseEfficiency reproduces Figure 20: the CDF over cases of how
// many fewer TMs the segmented hose needs to reach 75% coverage.
func SegmentedHoseEfficiency(cases, targets, samples, maxTMs int, seed int64) *Result {
	if cases <= 0 {
		cases = 12
	}
	if targets <= 0 {
		targets = 6
	}
	if samples <= 0 {
		samples = 250
	}
	if maxTMs <= 0 {
		maxTMs = 4000
	}
	const target = 0.75
	var reductions []float64
	var genCounts, segCounts []float64
	for c := 0; c < cases; c++ {
		caseSeed := seed + int64(c)*101
		general, segmented, regions := segmentationCase(targets, 100e9, caseSeed)
		count := func(h hose.Request) int {
			sampler := hose.NewSampler(h, regions, caseSeed+1)
			smp := make([]hose.TM, samples)
			for i := range smp {
				smp[i] = sampler.Interior()
			}
			return hose.TMsForCoverage(hose.NewSampler(h, regions, caseSeed+2), smp, target, maxTMs)
		}
		g := count(general)
		s := count(segmented)
		genCounts = append(genCounts, float64(g))
		segCounts = append(segCounts, float64(s))
		reductions = append(reductions, 1-float64(s)/float64(g))
	}
	r := &Result{
		Name:    "fig-20-segmented-hose-efficiency",
		Caption: fmt.Sprintf("TM reduction at %.0f%% coverage over %d cases", target*100, cases),
	}
	cdf := stats.NewCDF(reductions)
	xs, ps := cdf.Points(len(reductions))
	r.addSeries("TM reduction CDF", xs, ps)
	r.metric("median_reduction", stats.Quantile(reductions, 0.5))
	r.metric("p90_reduction", stats.Quantile(reductions, 0.9))
	r.metric("mean_general_tms", stats.Mean(genCounts))
	r.metric("mean_segmented_tms", stats.Mean(segCounts))
	return r
}

// CoverageVsTMs reproduces Figure 21: hose coverage as a function of the
// number of representative TMs, per QoS class.
func CoverageVsTMs(targets, samples, maxTMs int, seed int64) *Result {
	if targets <= 0 {
		targets = 6
	}
	if samples <= 0 {
		samples = 400
	}
	if maxTMs <= 0 {
		maxTMs = 4000
	}
	r := &Result{
		Name:    "fig-21-coverage-vs-tms",
		Caption: "hose coverage vs number of representative TMs",
	}
	checkpoints := []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, maxTMs}
	for _, class := range []contract.Class{contract.ClassA, contract.ClassB} {
		h := hose.Request{
			NPG: "svc", Class: class, Region: "SRC",
			Direction: contract.Egress, Rate: 100e9,
		}
		regions := make([]topology.Region, targets)
		for i := range regions {
			regions[i] = topology.Region(fmt.Sprintf("D%02d", i))
		}
		sampleSrc := hose.NewSampler(h, regions, seed+int64(class))
		smp := make([]hose.TM, samples)
		for i := range smp {
			smp[i] = sampleSrc.Interior()
		}
		repSrc := hose.NewSampler(h, regions, seed+100+int64(class))
		covered := make([]bool, len(smp))
		nCovered := 0
		var xs, ys []float64
		next := 0
		for k := 1; k <= maxTMs; k++ {
			rep := repSrc.Representative()
			for i := range smp {
				if !covered[i] && rep.Dominates(smp[i]) {
					covered[i] = true
					nCovered++
				}
			}
			if next < len(checkpoints) && k == checkpoints[next] {
				xs = append(xs, float64(k))
				ys = append(ys, float64(nCovered)/float64(samples))
				next++
			}
		}
		r.addSeries(fmt.Sprintf("coverage %v", class), xs, ys)
		r.metric(fmt.Sprintf("coverage_at_%d_%v", maxTMs, class), ys[len(ys)-1])
		r.metric(fmt.Sprintf("coverage_at_2000_%v", class), ys[len(ys)-2])
	}
	return r
}

// --- Figure 22: approval vs availability -------------------------------------

// ApprovalVsSLO reproduces Figure 22: the fraction of requested bandwidth
// approved as the availability requirement tightens, for egress and ingress.
func ApprovalVsSLO(scenarios int, seed int64) *Result {
	if scenarios <= 0 {
		scenarios = 200
	}
	topoOpts := topology.DefaultBackboneOptions()
	topoOpts.Regions = 6
	topoOpts.Chords = 4
	topoOpts.MinCapGbps = 800
	topoOpts.MaxCapGbps = 2400
	topoOpts.LinkFail = 0.01
	topoOpts.FiberCut = 0.01
	topoOpts.Seed = seed
	topo, err := topology.Backbone(topoOpts)
	if err != nil {
		panic(err)
	}
	regions := topo.RegionsSorted()
	// One egress + one ingress hose per region, sized to stress capacity.
	var hoses []hose.Request
	for i, reg := range regions {
		hoses = append(hoses,
			hose.Request{NPG: contract.NPG(fmt.Sprintf("svc-%d", i)), Class: contract.ClassB,
				Region: reg, Direction: contract.Egress, Rate: 1.2e12},
			hose.Request{NPG: contract.NPG(fmt.Sprintf("svc-%d", i)), Class: contract.ClassB,
				Region: reg, Direction: contract.Ingress, Rate: 1.2e12},
		)
	}
	slos := []float64{0.9, 0.95, 0.99, 0.995, 0.999}
	var xs, eg, in []float64
	for _, slo := range slos {
		res, err := approval.Approve(topo, hoses, approval.Options{
			RepresentativeTMs: 4,
			DefaultSLO:        contract.SLO(slo),
			Risk:              risk.Options{Scenarios: scenarios, Seed: seed + 9},
			Seed:              seed + 5,
		})
		if err != nil {
			panic(err)
		}
		e, i := res.FractionByDirection()
		xs = append(xs, slo)
		eg = append(eg, e)
		in = append(in, i)
	}
	r := &Result{
		Name:    "fig-22-approval-vs-slo",
		Caption: "approved fraction vs availability requirement",
	}
	r.addSeries("egress approval fraction", xs, eg)
	r.addSeries("ingress approval fraction", xs, in)
	r.metric("egress_at_0.9", eg[0])
	r.metric("egress_at_0.999", eg[len(eg)-1])
	r.metric("drop_low_to_high", eg[0]-eg[len(eg)-1])
	return r
}

// --- Figures 23-25: marking convergence --------------------------------------

// markingLosses are the §7.4 congestion levels.
var markingLosses = []float64{0, 0.125, 0.25, 0.5, 1.0}

func markingResult(name, caption string, meter func() enforce.Meter, pick func(enforce.MarkSimPoint) float64) *Result {
	r := &Result{Name: name, Caption: caption}
	const iterations = 40
	for _, loss := range markingLosses {
		points, err := enforce.SimulateMarking(enforce.MarkSimOptions{
			Demand: 10e12, Entitled: 5e12, Loss: loss,
			Iterations: iterations, Meter: meter(),
		})
		if err != nil {
			panic(err)
		}
		xs := make([]float64, len(points))
		ys := make([]float64, len(points))
		for i, p := range points {
			xs[i] = float64(p.Iteration)
			ys[i] = pick(p)
		}
		r.addSeries(fmt.Sprintf("loss %.1f%%", loss*100), xs, ys)
		r.metric(fmt.Sprintf("final_loss_%.3f", loss), ys[len(ys)-1])
	}
	return r
}

// StatelessInstant reproduces Figure 23.
func StatelessInstant() *Result {
	r := markingResult("fig-23-stateless-instant",
		"stateless marking, instantaneous conforming rate",
		func() enforce.Meter { return enforce.Stateless{} },
		func(p enforce.MarkSimPoint) float64 { return p.ConformRate })
	// Oscillation amplitude at 100% loss.
	last := r.Series[len(r.Series)-1].Y
	r.metric("oscillation_amplitude", stats.Max(last)-stats.Min(last[len(last)/2:]))
	return r
}

// StatelessAverage reproduces Figure 24.
func StatelessAverage() *Result {
	r := markingResult("fig-24-stateless-average",
		"stateless marking, average conforming rate",
		func() enforce.Meter { return enforce.Stateless{} },
		func(p enforce.MarkSimPoint) float64 { return p.Average })
	for i, loss := range markingLosses {
		r.metric(fmt.Sprintf("avg_over_entitled_loss_%.3f", loss),
			r.Series[i].Y[len(r.Series[i].Y)-1]/5e12)
	}
	return r
}

// StatefulConvergence reproduces Figure 25.
func StatefulConvergence() *Result {
	r := markingResult("fig-25-stateful-instant",
		"stateful marking, instantaneous conforming rate",
		func() enforce.Meter { return enforce.NewStateful() },
		func(p enforce.MarkSimPoint) float64 { return p.ConformRate })
	// Iterations to convergence within 5% of the entitled rate.
	for i, loss := range markingLosses {
		ys := r.Series[i].Y
		conv := len(ys)
		for k := range ys {
			ok := true
			for _, v := range ys[k:] {
				if v < 4.75e12 || v > 5.25e12 {
					ok = false
					break
				}
			}
			if ok {
				conv = k + 1
				break
			}
		}
		r.metric(fmt.Sprintf("converged_by_loss_%.3f", loss), float64(conv))
	}
	return r
}

// --- Ablations ----------------------------------------------------------------

// AblationSegments compares N=2,3,4 segments on reserved capacity and TM
// counts — the paper's future-work question on more segments.
func AblationSegments(seed int64) *Result {
	r := &Result{
		Name:    "ablation-segments",
		Caption: "segment count vs reservation and TM efficiency",
	}
	targets := 8
	rate := 100e9
	_, _, regions := segmentationCase(targets, rate, seed)
	// Rebuild the per-destination history (segmentationCase discards it).
	rng := rand.New(rand.NewSource(seed))
	perDst := make(map[topology.Region]*timeseries.Series)
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	half := targets / 2
	for i, reg := range regions {
		n := 48
		vals := make([]float64, n)
		groupShare := 0.55
		groupSize := half
		if i >= half {
			groupShare = 0.45
			groupSize = targets - half
		}
		for t := 0; t < n; t++ {
			vals[t] = rate * groupShare / float64(groupSize) * (1 + 0.5*rng.Float64())
		}
		perDst[reg] = timeseries.New(start, time.Hour, vals)
	}
	base := hose.Request{NPG: "svc", Class: contract.ClassB, Region: "SRC", Direction: contract.Egress, Rate: rate}
	var xs, reserved, tms []float64
	// N=1 is the general hose.
	xs = append(xs, 1)
	reserved = append(reserved, hose.GeneralHoseReserved(&base, targets))
	tms = append(tms, float64(coverageTMs(base, regions, seed, 0.75)))
	for n := 2; n <= 4; n++ {
		segs, err := hose.NSegments(perDst, n)
		if err != nil {
			panic(err)
		}
		h := base
		h.Segments = segs
		xs = append(xs, float64(n))
		reserved = append(reserved, hose.SegmentedReserved(&h))
		tms = append(tms, float64(coverageTMs(h, regions, seed, 0.75)))
	}
	r.addSeries("reserved capacity bits/s", xs, reserved)
	r.addSeries("TMs for 75% coverage", xs, tms)
	r.metric("reserved_n1", reserved[0])
	r.metric("reserved_n2", reserved[1])
	r.metric("reserved_n4", reserved[3])
	return r
}

func coverageTMs(h hose.Request, regions []topology.Region, seed int64, target float64) int {
	sampler := hose.NewSampler(h, regions, seed+3)
	smp := make([]hose.TM, 200)
	for i := range smp {
		smp[i] = sampler.Interior()
	}
	return hose.TMsForCoverage(hose.NewSampler(h, regions, seed+4), smp, target, 4000)
}

// AblationReservation reproduces the Figure 6 worked example: reserved
// capacity under the pipe, general-hose, and segmented-hose models.
func AblationReservation() *Result {
	pipes := []hose.PipeRequest{
		{NPG: "Ads", Class: contract.ClassA, Src: "A", Dst: "B", Rate: 300e9},
		{NPG: "Ads", Class: contract.ClassA, Src: "A", Dst: "C", Rate: 100e9},
		{NPG: "Ads", Class: contract.ClassA, Src: "A", Dst: "D", Rate: 250e9},
		{NPG: "Ads", Class: contract.ClassA, Src: "A", Dst: "E", Rate: 250e9},
	}
	h := hose.Request{NPG: "Ads", Class: contract.ClassA, Region: "A", Direction: contract.Egress, Rate: 900e9}
	seg := h
	seg.Segments = []hose.Segment{
		{Targets: []topology.Region{"B", "C"}, Alpha: 400.0 / 900},
		{Targets: []topology.Region{"D", "E"}, Alpha: 500.0 / 900},
	}
	r := &Result{
		Name:    "ablation-reservation",
		Caption: "Figure 6 example: reserved capacity per demand model",
	}
	pipe := hose.PipeReserved(pipes)
	gen := hose.GeneralHoseReserved(&h, 4)
	segR := hose.SegmentedReserved(&seg)
	r.addSeries("reserved bits/s (pipe, hose, segmented)",
		[]float64{0, 1, 2}, []float64{pipe, gen, segR})
	r.metric("pipe_reserved", pipe)
	r.metric("hose_reserved", gen)
	r.metric("segmented_reserved", segR)
	r.metric("segmented_over_hose", segR/gen)
	return r
}

// AblationArchitecture models the §5.1 centralized→distributed evolution as
// an enforcement-staleness comparison: a centralized controller is a single
// point whose failure stalls every host's policy updates, while distributed
// agents fail independently.
func AblationArchitecture(hosts, cycles int, seed int64) *Result {
	if hosts <= 0 {
		hosts = 1000
	}
	if cycles <= 0 {
		cycles = 5000
	}
	rng := rand.New(rand.NewSource(seed))
	agentFail := 0.001 // per-agent per-cycle failure probability
	var xs, central, distributed []float64
	for _, controllerFail := range []float64{0.0005, 0.001, 0.005, 0.01, 0.05} {
		staleCentral, staleDist := 0, 0
		for c := 0; c < cycles; c++ {
			controllerDown := rng.Float64() < controllerFail
			for h := 0; h < hosts; h++ {
				agentDown := rng.Float64() < agentFail
				if controllerDown || agentDown {
					staleCentral++
				}
				if agentDown {
					staleDist++
				}
			}
		}
		total := float64(cycles * hosts)
		xs = append(xs, controllerFail)
		central = append(central, float64(staleCentral)/total)
		distributed = append(distributed, float64(staleDist)/total)
	}
	r := &Result{
		Name:    "ablation-architecture",
		Caption: "stale-enforcement fraction: centralized controller vs distributed agents",
	}
	r.addSeries("centralized stale fraction", xs, central)
	r.addSeries("distributed stale fraction", xs, distributed)
	r.metric("central_stale_at_0.01", central[3])
	r.metric("distributed_stale_at_0.01", distributed[3])
	return r
}

// AblationJointRealizations compares independent per-hose realizations with
// joint full-TM realizations (Equation 1 via Sinkhorn) in the approval
// pipeline: independent draws count a service's traffic once against its
// egress hose and once against its ingress hose, inflating apparent demand;
// joint draws model each realization as one consistent matrix.
func AblationJointRealizations(seed int64) *Result {
	topoOpts := topology.DefaultBackboneOptions()
	topoOpts.Regions = 6
	topoOpts.Chords = 4
	topoOpts.MinCapGbps = 600
	topoOpts.MaxCapGbps = 1200
	topoOpts.Seed = seed
	topo, err := topology.Backbone(topoOpts)
	if err != nil {
		panic(err)
	}
	regions := topo.RegionsSorted()
	var hoses []hose.Request
	for _, reg := range regions {
		hoses = append(hoses,
			hose.Request{NPG: "svc", Class: contract.ClassB, Region: reg,
				Direction: contract.Egress, Rate: 0.8e12},
			hose.Request{NPG: "svc", Class: contract.ClassB, Region: reg,
				Direction: contract.Ingress, Rate: 0.8e12},
		)
	}
	base := approval.Options{
		RepresentativeTMs: 5,
		DefaultSLO:        0.95,
		Risk:              risk.Options{Scenarios: 80, Seed: seed + 1},
		Seed:              seed + 2,
	}
	run := func(joint bool) float64 {
		o := base
		o.JointRealizations = joint
		res, err := approval.Approve(topo, hoses, o)
		if err != nil {
			panic(err)
		}
		return res.ApprovalFraction()
	}
	indep := run(false)
	joint := run(true)
	r := &Result{
		Name:    "ablation-joint-realizations",
		Caption: "independent per-hose vs joint full-TM realizations in approval",
	}
	r.addSeries("approval fraction (independent, joint)", []float64{0, 1}, []float64{indep, joint})
	r.metric("independent_fraction", indep)
	r.metric("joint_fraction", joint)
	r.metric("joint_over_independent", joint/indep)
	return r
}
