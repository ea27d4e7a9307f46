package core

import (
	"math"
	"testing"
	"time"

	"entitlement/internal/approval"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/forecast"
	"entitlement/internal/hose"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
	"entitlement/internal/traffic"
)

var periodStart = time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)

// fixture builds a small end-to-end setup: 5-region reliable backbone,
// 120 days of history for a few services.
func fixture(t *testing.T, tail int) (*Framework, *traffic.DemandSet, Options) {
	t.Helper()
	topoOpts := topology.DefaultBackboneOptions()
	topoOpts.Regions = 5
	topoOpts.Chords = 4
	topoOpts.MinCapGbps = 20000
	topoOpts.MaxCapGbps = 40000
	topoOpts.LinkFail = 0.001
	topo, err := topology.Backbone(topoOpts)
	if err != nil {
		t.Fatal(err)
	}
	specs := traffic.DefaultOntology(tail)
	ds, err := traffic.GenerateDemands(specs, traffic.MatrixOptions{
		Regions: topo.RegionsSorted(), TotalRate: 20e12,
		Days: 120, Step: time.Hour, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(periodStart)
	opts.Approval = approval.Options{
		RepresentativeTMs: 3,
		Risk:              risk.Options{Scenarios: 20, Seed: 5},
		Seed:              7,
	}
	opts.MinPipeRate = 1e9
	return New(topo, contractdb.NewStore()), ds, opts
}

func TestEstablishContractsEndToEnd(t *testing.T) {
	fw, ds, opts := fixture(t, 0)
	rep, err := fw.EstablishContracts(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pipes) == 0 || len(rep.Hoses) == 0 || len(rep.Contracts) == 0 {
		t.Fatalf("incomplete report: %d pipes, %d hoses, %d contracts",
			len(rep.Pipes), len(rep.Hoses), len(rep.Contracts))
	}
	// Every contract validates and is retrievable from the database.
	for _, c := range rep.Contracts {
		if err := c.Validate(); err != nil {
			t.Errorf("contract %s invalid: %v", c.NPG, err)
		}
		stored, ok := fw.DB.Get(c.NPG)
		if !ok || !stored.Approved {
			t.Errorf("contract %s not stored/approved", c.NPG)
		}
	}
	// No contract for the balancing dummy.
	if _, ok := fw.DB.Get(hose.DummyNPG); ok {
		t.Error("dummy balancing service got a contract")
	}
	// Entitlement periods cover the quarter.
	for _, c := range rep.Contracts {
		for _, e := range c.Entitlements {
			if !e.Start.Equal(periodStart) {
				t.Errorf("entitlement start = %v", e.Start)
			}
			if got := e.End.Sub(e.Start); got != forecast.QuarterDays*24*time.Hour {
				t.Errorf("period length = %v", got)
			}
		}
	}
}

func TestEstablishContractsEgressHosesSegmented(t *testing.T) {
	fw, ds, opts := fixture(t, 0)
	rep, err := fw.EstablishContracts(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	segmented := 0
	for _, h := range rep.Hoses {
		if h.Direction == contract.Egress && len(h.Segments) == 2 {
			segmented++
		}
	}
	if segmented == 0 {
		t.Error("no egress hose was segmented")
	}
}

func TestEstablishContractsBalanced(t *testing.T) {
	fw, ds, opts := fixture(t, 0)
	rep, err := fw.EstablishContracts(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Per class, total ingress == total egress after balancing.
	byClass := make(map[contract.Class][2]float64)
	for _, h := range rep.Hoses {
		v := byClass[h.Class]
		if h.Direction == contract.Egress {
			v[0] += h.Rate
		} else {
			v[1] += h.Rate
		}
		byClass[h.Class] = v
	}
	for c, v := range byClass {
		if v[0]+v[1] == 0 {
			continue
		}
		if math.Abs(v[0]-v[1]) > 1e-3*(v[0]+v[1]) {
			t.Errorf("class %v unbalanced: egress %v ingress %v", c, v[0], v[1])
		}
	}
}

func TestEstablishContractsLowTouchGrouping(t *testing.T) {
	fw, ds, opts := fixture(t, 10)
	// Only the big storage services are high-touch.
	opts.HighTouch = map[contract.NPG]bool{
		"Logging": true, "Warmstorage": true, "Coldstorage": true,
		"Datawarehouse": true, "MultiFeed": true, "Everstore": true, "Ads": true,
	}
	rep, err := fw.EstablishContracts(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	sawLowTouch := false
	for _, c := range rep.Contracts {
		if c.NPG == traffic.LowTouchNPG {
			sawLowTouch = true
		}
		// No tail service gets its own contract.
		if len(c.NPG) > 5 && c.NPG[:5] == "tail-" {
			t.Errorf("tail service %s has its own contract", c.NPG)
		}
	}
	if !sawLowTouch {
		t.Error("no aggregate low-touch contract")
	}
	// Grouping caps the number of contracts at high-touch + 1.
	if len(rep.Contracts) > 8 {
		t.Errorf("contracts = %d, want <= 8", len(rep.Contracts))
	}
}

func TestEstablishContractsEnforceableRates(t *testing.T) {
	fw, ds, opts := fixture(t, 0)
	rep, err := fw.EstablishContracts(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Pick any egress approval and confirm the agent-facing query returns
	// the same rate mid-period.
	mid := periodStart.Add(30 * 24 * time.Hour)
	found := false
	for i := range rep.Approval.Approvals {
		a := &rep.Approval.Approvals[i]
		if a.Request.NPG == hose.DummyNPG || a.Request.Direction != contract.Egress {
			continue
		}
		rate, ok, err := fw.DB.EntitledRate(a.Request.NPG, a.Request.Class, a.Request.Region, contract.Egress, mid)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("no entitlement found for %s", a.Request.Key())
			continue
		}
		if math.Abs(rate-a.ApprovedRate) > 1e-3 {
			t.Errorf("%s: DB rate %v != approved %v", a.Request.Key(), rate, a.ApprovedRate)
		}
		found = true
	}
	if !found {
		t.Error("no egress approvals to check")
	}
}

func TestEstablishContractsValidation(t *testing.T) {
	fw, ds, opts := fixture(t, 0)
	if _, err := fw.EstablishContracts(nil, opts); err == nil {
		t.Error("nil history accepted")
	}
	bad := opts
	bad.PeriodStart = time.Time{}
	if _, err := fw.EstablishContracts(ds, bad); err == nil {
		t.Error("zero period start accepted")
	}
	none := opts
	none.MinPipeRate = 1e18
	if _, err := fw.EstablishContracts(ds, none); err == nil {
		t.Error("all-filtered pipes accepted")
	}
	broken := New(nil, nil)
	if _, err := broken.EstablishContracts(ds, opts); err == nil {
		t.Error("missing topology accepted")
	}
}

func TestEstablishContractsProposalsForScarcity(t *testing.T) {
	// Tiny backbone capacity: most demand cannot be approved, so the §8
	// negotiation engine must produce counter-proposals.
	topoOpts := topology.DefaultBackboneOptions()
	topoOpts.Regions = 5
	topoOpts.Chords = 2
	topoOpts.MinCapGbps = 50
	topoOpts.MaxCapGbps = 100
	topo, err := topology.Backbone(topoOpts)
	if err != nil {
		t.Fatal(err)
	}
	specs := traffic.DefaultOntology(0)
	ds, err := traffic.GenerateDemands(specs, traffic.MatrixOptions{
		Regions: topo.RegionsSorted(), TotalRate: 20e12,
		Days: 120, Step: time.Hour, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(periodStart)
	opts.Approval = approval.Options{RepresentativeTMs: 2, Risk: risk.Options{Scenarios: 10, Seed: 5}, Seed: 7}
	opts.MinPipeRate = 1e9
	fw := New(topo, contractdb.NewStore())
	rep, err := fw.EstablishContracts(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Proposals) == 0 {
		t.Error("scarce network produced no counter-proposals")
	}
	for _, p := range rep.Proposals {
		if p.AdmittableRate > p.Hose.Rate {
			t.Errorf("admittable %v above request %v", p.AdmittableRate, p.Hose.Rate)
		}
	}
}

func TestEstablishContractsNegotiated(t *testing.T) {
	// Scarce backbone: the first pass under-approves; negotiation reduces
	// requests to admittable volumes and re-approves.
	topoOpts := topology.DefaultBackboneOptions()
	topoOpts.Regions = 5
	topoOpts.Chords = 2
	topoOpts.MinCapGbps = 100
	topoOpts.MaxCapGbps = 200
	topo, err := topology.Backbone(topoOpts)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := traffic.GenerateDemands(traffic.DefaultOntology(0), traffic.MatrixOptions{
		Regions: topo.RegionsSorted(), TotalRate: 20e12,
		Days: 120, Step: time.Hour, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(periodStart)
	opts.Approval = approval.Options{RepresentativeTMs: 2, Risk: risk.Options{Scenarios: 10, Seed: 5}, Seed: 7}
	opts.MinPipeRate = 1e9
	fw := New(topo, contractdb.NewStore())
	final, rounds, err := fw.EstablishContractsNegotiated(ds, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) == 0 {
		t.Fatal("no negotiation rounds on a scarce network")
	}
	for _, r := range rounds {
		if len(r.Reduced) == 0 {
			t.Error("round reduced nothing")
		}
	}
	// After negotiation the approval fraction of the (reduced) asks is
	// higher than the raw first-pass fraction.
	if final.Approval.ApprovalFraction() <= 0.5 {
		t.Errorf("negotiated approval fraction = %v", final.Approval.ApprovalFraction())
	}
	// Contracts reflect the final (admittable) rates and validate.
	if len(final.Contracts) == 0 {
		t.Fatal("no contracts after negotiation")
	}
	for _, c := range final.Contracts {
		if err := c.Validate(); err != nil {
			t.Errorf("contract %s invalid: %v", c.NPG, err)
		}
	}
	if _, _, err := fw.EstablishContractsNegotiated(ds, opts, -1); err == nil {
		t.Error("negative rounds accepted")
	}
}

func TestEstablishContractsNegotiatedImprovesFraction(t *testing.T) {
	fw, ds, opts := fixture(t, 0)
	base, err := New(fw.Topo, contractdb.NewStore()).EstablishContracts(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	final, rounds, err := fw.EstablishContractsNegotiated(ds, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) > 3 {
		t.Errorf("rounds = %d, want <= 3", len(rounds))
	}
	// Negotiation never lowers the approval fraction: reduced asks are at
	// least as approvable as the originals.
	if final.Approval.ApprovalFraction() < base.Approval.ApprovalFraction()-1e-6 {
		t.Errorf("negotiated fraction %v below base %v",
			final.Approval.ApprovalFraction(), base.Approval.ApprovalFraction())
	}
	if len(final.Contracts) == 0 {
		t.Error("no contracts")
	}
	// With no proposals left (or rounds exhausted), the stored contracts
	// match the final report.
	for _, c := range final.Contracts {
		stored, ok := fw.DB.Get(c.NPG)
		if !ok || len(stored.Entitlements) != len(c.Entitlements) {
			t.Errorf("stored contract for %s diverges", c.NPG)
		}
	}
}
