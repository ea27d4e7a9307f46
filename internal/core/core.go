// Package core is the entitlement framework itself: the orchestration of
// §3.2's four-step process over the substrate packages.
//
//  1. Service demand forecast (internal/forecast): per-pipe SLI metrics from
//     traffic history, with high-touch services treated individually and the
//     long tail grouped into one low-touch service (§4.3).
//  2. Contract representation (internal/hose): pipes aggregate into hoses,
//     segmented with Algorithm 1 using the observed per-destination
//     deployment structure, then ingress/egress balanced (§8).
//  3. Contract approval (internal/approval + internal/risk): SLO-aware
//     granting against the backbone topology.
//  4. Runtime enforcement: the approved contracts land in the contract
//     database that the distributed agents (internal/enforce) query.
package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"entitlement/internal/approval"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/forecast"
	"entitlement/internal/granting"
	"entitlement/internal/hose"
	"entitlement/internal/timeseries"
	"entitlement/internal/topology"
	"entitlement/internal/traffic"
)

// Options configures one entitlement round.
type Options struct {
	// Prophet configures the organic demand model.
	Prophet forecast.ProphetOptions
	// SLIKind maps NPGs to their SLI reduction; unlisted NPGs use
	// forecast.SLIDailyMean ("different services need different types of
	// daily data", §4.1).
	SLIKind map[contract.NPG]forecast.SLIKind
	// SLO maps NPGs to their availability targets; unlisted NPGs use
	// DefaultSLO.
	SLO        map[contract.NPG]contract.SLO
	DefaultSLO contract.SLO
	// HighTouch lists the services entitled individually; every other NPG
	// aggregates into traffic.LowTouchNPG. A nil map treats every NPG as
	// high-touch.
	HighTouch map[contract.NPG]bool
	// Approval configures the granting engine.
	Approval approval.Options
	// PeriodStart begins the enforcement period; it runs for
	// forecast.QuarterDays days.
	PeriodStart time.Time
	// MinPipeRate drops forecast pipes below this rate (bits/s) to keep
	// the approval problem tractable; 0 keeps everything.
	MinPipeRate float64
	// Segment enables segmented-hose contracts (the production default).
	Segment bool
}

// DefaultOptions returns a workable configuration for synthetic workloads.
func DefaultOptions(start time.Time) Options {
	return Options{
		Prophet:     forecast.ProphetOptions{Changepoints: 4, WeeklyOrder: 2},
		DefaultSLO:  0.999,
		PeriodStart: start,
		Segment:     true,
	}
}

// PipeForecast is one forecast pipe with its monthly demand detail.
type PipeForecast struct {
	Pipe    hose.PipeRequest
	Monthly [3]float64
}

// Report is the outcome of one entitlement round.
type Report struct {
	// Pipes are the forecast SLI demands (step 1).
	Pipes []PipeForecast
	// Hoses are the (segmented, balanced) contract representations (step 2).
	Hoses []hose.Request
	// Approval is the granting outcome (step 3).
	Approval *approval.Result
	// Proposals are counter-proposals for under-approved hoses (§8).
	Proposals []approval.CounterProposal
	// Contracts are the final stored contracts (step 4's input).
	Contracts []contract.Contract
}

// Framework wires a topology and contract database into the entitlement
// process.
type Framework struct {
	Topo *topology.Topology
	DB   *contractdb.Store
}

// New creates a framework over the given backbone and database.
func New(topo *topology.Topology, db *contractdb.Store) *Framework {
	return &Framework{Topo: topo, DB: db}
}

// effectiveNPG applies the high-touch/low-touch grouping.
func effectiveNPG(npg contract.NPG, highTouch map[contract.NPG]bool) contract.NPG {
	if highTouch == nil || highTouch[npg] {
		return npg
	}
	return traffic.LowTouchNPG
}

// PrepareRequests runs steps 1–2 of the granting pipeline — demand forecast
// and segmented/balanced hose representation — and returns a report with
// Pipes and Hoses filled. It is the demand side of the process, split out so
// online admission (cmd/grantd, cmd/granting -submit) can prepare requests
// once and route the decision through the granting service instead of the
// in-process approval below.
func (f *Framework) PrepareRequests(history *traffic.DemandSet, opts Options) (*Report, error) {
	if f.Topo == nil {
		return nil, errors.New("core: framework missing topology")
	}
	if history == nil || len(history.Flows) == 0 {
		return nil, errors.New("core: empty demand history")
	}

	// --- Step 1: demand forecast per (grouped NPG, class, src, dst). -----
	type pipeKey struct {
		npg      contract.NPG
		class    contract.Class
		src, dst topology.Region
	}
	merged := make(map[pipeKey]*timeseries.Series)
	var keys []pipeKey
	for i := range history.Flows {
		fl := &history.Flows[i]
		k := pipeKey{effectiveNPG(fl.NPG, opts.HighTouch), fl.Class, fl.Src, fl.Dst}
		if cur, ok := merged[k]; ok {
			for j, v := range fl.Series.Values {
				cur.Values[j] += v
			}
		} else {
			merged[k] = fl.Series.Clone()
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.npg != b.npg {
			return a.npg < b.npg
		}
		if a.class != b.class {
			return a.class < b.class
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.dst < b.dst
	})

	report := &Report{}
	// Historical per-destination series per (npg, class, src) for
	// segmentation (step 2 uses observed deployment structure).
	perDst := make(map[string]map[topology.Region]*timeseries.Series)
	hoseKey := func(npg contract.NPG, class contract.Class, src topology.Region) string {
		return fmt.Sprintf("%s/%s/%s", npg, class, src)
	}
	for _, k := range keys {
		raw := merged[k]
		kind := opts.SLIKind[k.npg]
		daily, err := forecast.DailySLI(raw, kind)
		if err != nil {
			return nil, fmt.Errorf("core: SLI for %v: %w", k, err)
		}
		res, err := forecast.ForecastQuarter(daily, opts.Prophet)
		if err != nil {
			return nil, fmt.Errorf("core: forecast for %v: %w", k, err)
		}
		if opts.MinPipeRate > 0 && res.Quarter < opts.MinPipeRate {
			continue
		}
		report.Pipes = append(report.Pipes, PipeForecast{
			Pipe: hose.PipeRequest{
				NPG: k.npg, Class: k.class, Src: k.src, Dst: k.dst, Rate: res.Quarter,
			},
			Monthly: res.Monthly,
		})
		hk := hoseKey(k.npg, k.class, k.src)
		if perDst[hk] == nil {
			perDst[hk] = make(map[topology.Region]*timeseries.Series)
		}
		perDst[hk][k.dst] = raw
	}
	if len(report.Pipes) == 0 {
		return nil, errors.New("core: no pipes above the minimum rate")
	}

	// --- Step 2: hose representation + segmentation + balancing. ---------
	pipes := make([]hose.PipeRequest, len(report.Pipes))
	for i := range report.Pipes {
		pipes[i] = report.Pipes[i].Pipe
	}
	hoses := hose.AggregatePipes(pipes)
	if opts.Segment {
		for i := range hoses {
			h := &hoses[i]
			if h.Direction != contract.Egress {
				continue
			}
			if pd := perDst[hoseKey(h.NPG, h.Class, h.Region)]; len(pd) >= 2 {
				*h = hose.SegmentHose(*h, pd)
			}
		}
	}
	// Balance per class so global ingress equals egress (§8).
	regions := f.Topo.RegionsSorted()
	byClass := make(map[contract.Class][]hose.Request)
	var classes []contract.Class
	for _, h := range hoses {
		if _, ok := byClass[h.Class]; !ok {
			classes = append(classes, h.Class)
		}
		byClass[h.Class] = append(byClass[h.Class], h)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	var balanced []hose.Request
	for _, c := range classes {
		balanced = append(balanced, hose.BalanceHoses(byClass[c], regions, c)...)
	}
	report.Hoses = balanced
	return report, nil
}

// EstablishContracts runs the full granting pipeline on a demand history and
// stores the resulting contracts in the database: PrepareRequests (steps
// 1–2), then approval (step 3) and contracts into the database (step 4).
func (f *Framework) EstablishContracts(history *traffic.DemandSet, opts Options) (*Report, error) {
	if f.Topo == nil || f.DB == nil {
		return nil, errors.New("core: framework missing topology or database")
	}
	if opts.PeriodStart.IsZero() {
		return nil, errors.New("core: missing period start")
	}
	report, err := f.PrepareRequests(history, opts)
	if err != nil {
		return nil, err
	}

	// --- Step 3: approval. ------------------------------------------------
	apprOpts := opts.Approval
	if apprOpts.SLOs == nil {
		apprOpts.SLOs = opts.SLO
	}
	if apprOpts.DefaultSLO == 0 {
		apprOpts.DefaultSLO = opts.DefaultSLO
	}
	res, err := approval.Approve(f.Topo, report.Hoses, apprOpts)
	if err != nil {
		return nil, fmt.Errorf("core: approval: %w", err)
	}
	report.Approval = res
	report.Proposals = approval.Negotiate(res)

	// --- Step 4: contracts into the database. -----------------------------
	if err := f.storeContracts(report, opts); err != nil {
		return nil, err
	}
	return report, nil
}

// GrantRequests groups prepared hoses per NPG into granting requests — the
// bridge from the demand pipeline to the online admission service. Hoses
// keep their prepared order inside each request; requests come out sorted by
// NPG (the balancing filler rides along so the assessment matches the batch
// pipeline's competition exactly). Every request opts into the §8
// negotiation fallback, so contracts land at the admittable volume — the
// same semantics as EstablishContracts' step 4, which stores approved rates
// even for partially approved hoses.
func GrantRequests(hoses []hose.Request, opts Options, startUnix int64) []granting.Request {
	byNPG := make(map[contract.NPG]*granting.Request)
	var npgs []contract.NPG
	for _, h := range hoses {
		r := byNPG[h.NPG]
		if r == nil {
			var slo contract.SLO
			if s, ok := opts.SLO[h.NPG]; ok {
				slo = s
			}
			r = &granting.Request{NPG: h.NPG, SLO: slo, StartUnix: startUnix, Negotiate: true}
			byNPG[h.NPG] = r
			npgs = append(npgs, h.NPG)
		}
		r.Hoses = append(r.Hoses, h)
	}
	sort.Slice(npgs, func(i, j int) bool { return npgs[i] < npgs[j] })
	out := make([]granting.Request, 0, len(npgs))
	for _, npg := range npgs {
		out = append(out, *byNPG[npg])
	}
	return out
}

// NegotiationRound records one automated negotiation iteration (§8:
// "one straightforward way is to return back to service and reduce the
// requested demand to try again").
type NegotiationRound struct {
	// Reduced lists hoses whose requests were cut to the counter-proposal.
	Reduced []hose.Request
	// ApprovalFraction after the round.
	ApprovalFraction float64
}

// EstablishContractsNegotiated runs EstablishContracts and then up to
// maxRounds automated negotiation rounds: every under-approved hose's
// request is reduced to its admittable volume (the counter-proposal) and
// approval re-runs, so the final contracts reflect rates the network
// actually guarantees. The base report (with the original asks and their
// proposals) and the per-round trail are returned alongside the final
// report.
func (f *Framework) EstablishContractsNegotiated(history *traffic.DemandSet, opts Options, maxRounds int) (*Report, []NegotiationRound, error) {
	if maxRounds < 0 {
		return nil, nil, errors.New("core: negative negotiation rounds")
	}
	report, err := f.EstablishContracts(history, opts)
	if err != nil {
		return nil, nil, err
	}
	var rounds []NegotiationRound
	current := report
	for r := 0; r < maxRounds && len(current.Proposals) > 0; r++ {
		// Apply counter-proposals: reduce each under-approved hose.
		reducedBy := make(map[string]float64, len(current.Proposals))
		for _, p := range current.Proposals {
			reducedBy[p.Hose.Key()] = p.AdmittableRate
		}
		hoses := make([]hose.Request, len(current.Hoses))
		var reduced []hose.Request
		for i, h := range current.Hoses {
			hoses[i] = h
			if rate, ok := reducedBy[h.Key()]; ok && rate < h.Rate {
				hoses[i].Rate = rate
				reduced = append(reduced, hoses[i])
			}
		}
		if len(reduced) == 0 {
			break
		}
		apprOpts := opts.Approval
		if apprOpts.SLOs == nil {
			apprOpts.SLOs = opts.SLO
		}
		if apprOpts.DefaultSLO == 0 {
			apprOpts.DefaultSLO = opts.DefaultSLO
		}
		res, err := approval.Approve(f.Topo, hoses, apprOpts)
		if err != nil {
			return nil, nil, fmt.Errorf("core: negotiation round %d: %w", r+1, err)
		}
		next := &Report{
			Pipes:     current.Pipes,
			Hoses:     hoses,
			Approval:  res,
			Proposals: approval.Negotiate(res),
		}
		rounds = append(rounds, NegotiationRound{
			Reduced:          reduced,
			ApprovalFraction: res.ApprovalFraction(),
		})
		current = next
	}
	if current != report {
		// Re-store contracts from the final round.
		if err := f.storeContracts(current, opts); err != nil {
			return nil, nil, err
		}
	}
	return current, rounds, nil
}

// storeContracts converts a report's approvals into contracts in the
// database (step 4), shared by the plain and negotiated paths.
func (f *Framework) storeContracts(report *Report, opts Options) error {
	periodEnd := opts.PeriodStart.Add(forecast.QuarterDays * 24 * time.Hour)
	byNPG := make(map[contract.NPG]*contract.Contract)
	var npgs []contract.NPG
	for i := range report.Approval.Approvals {
		a := &report.Approval.Approvals[i]
		if a.Request.NPG == hose.DummyNPG {
			continue
		}
		c := byNPG[a.Request.NPG]
		if c == nil {
			slo := opts.DefaultSLO
			if s, ok := opts.SLO[a.Request.NPG]; ok {
				slo = s
			}
			c = &contract.Contract{NPG: a.Request.NPG, SLO: slo, Approved: true}
			byNPG[a.Request.NPG] = c
			npgs = append(npgs, a.Request.NPG)
		}
		c.Entitlements = append(c.Entitlements, contract.Entitlement{
			NPG: a.Request.NPG, Class: a.Request.Class, Region: a.Request.Region,
			Direction: a.Request.Direction, Rate: a.ApprovedRate,
			Start: opts.PeriodStart, End: periodEnd,
		})
	}
	sort.Slice(npgs, func(i, j int) bool { return npgs[i] < npgs[j] })
	report.Contracts = report.Contracts[:0]
	for _, npg := range npgs {
		c := byNPG[npg]
		if err := f.DB.Put(*c); err != nil {
			return fmt.Errorf("core: store contract for %s: %w", npg, err)
		}
		report.Contracts = append(report.Contracts, *c)
	}
	return nil
}
