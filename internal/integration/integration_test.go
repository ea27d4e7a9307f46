// Package integration exercises the whole system end-to-end across process
// boundaries: the granting pipeline produces contracts, they are served from
// a real TCP contract database, enforcement agents coordinate through a real
// TCP rate store, and the accountability demarcation holds on the outcome.
package integration

import (
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"entitlement/internal/approval"
	"entitlement/internal/bpf"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/core"
	"entitlement/internal/enforce"
	"entitlement/internal/kvstore"
	"entitlement/internal/netsim"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
	"entitlement/internal/traffic"
)

var periodStart = time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)

// grantContracts runs the granting pipeline on a small synthetic setup and
// returns the populated store.
func grantContracts(t *testing.T) (*contractdb.Store, *core.Report) {
	t.Helper()
	topoOpts := topology.DefaultBackboneOptions()
	topoOpts.Regions = 4
	topoOpts.Chords = 2
	topoOpts.MinCapGbps = 20000
	topoOpts.MaxCapGbps = 30000
	topo, err := topology.Backbone(topoOpts)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := traffic.GenerateDemands(traffic.DefaultOntology(0), traffic.MatrixOptions{
		Regions: topo.RegionsSorted(), TotalRate: 10e12,
		Days: 100, Step: time.Hour, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := contractdb.NewStore()
	opts := core.DefaultOptions(periodStart)
	opts.MinPipeRate = 1e9
	opts.Approval = approval.Options{
		RepresentativeTMs: 2,
		Risk:              risk.Options{Scenarios: 15, Seed: 7},
		Seed:              9,
	}
	rep, err := core.New(topo, db).EstablishContracts(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, rep
}

func TestGrantThenEnforceOverTCP(t *testing.T) {
	db, rep := grantContracts(t)
	if len(rep.Contracts) == 0 {
		t.Fatal("no contracts granted")
	}

	// Serve the contract database and rate store over real sockets.
	dbL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dbSrv := contractdb.NewServer(dbL, db)
	defer dbSrv.Close()
	kvL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	kvSrv := kvstore.NewServer(kvL, kvstore.New())
	defer kvSrv.Close()

	// Pick a granted egress entitlement to enforce.
	var ent *contract.Entitlement
	var slo contract.SLO
	for i := range rep.Contracts {
		c := &rep.Contracts[i]
		for j := range c.Entitlements {
			e := &c.Entitlements[j]
			if e.Direction == contract.Egress && e.Rate > 1e9 {
				ent, slo = e, c.SLO
				break
			}
		}
		if ent != nil {
			break
		}
	}
	if ent == nil {
		t.Fatal("no enforceable egress entitlement")
	}
	if err := slo.Validate(); err != nil {
		t.Fatalf("granted SLO invalid: %v", err)
	}

	// A fleet of agents for that flow set, dialing over TCP, with demand 2x
	// the entitlement.
	const hosts = 10
	perHost := 2 * ent.Rate / hosts
	type member struct {
		agent *enforce.Agent
		id    string
	}
	var fleet []member
	for i := 0; i < hosts; i++ {
		id := fmt.Sprintf("host-%02d", i)
		dbc, err := contractdb.Dial(dbSrv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer dbc.Close()
		kvc, err := kvstore.Dial(kvSrv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer kvc.Close()
		a, err := enforce.NewAgent(enforce.AgentConfig{
			Host: id, NPG: ent.NPG, Class: ent.Class, Region: ent.Region,
			DB: dbc, Rates: kvc, Meter: enforce.NewStateful(),
			Prog: bpf.NewProgram(bpf.NewMap()), Policy: enforce.HostBased,
			RateTTL: time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, member{agent: a, id: id})
	}

	// Closed loop: a remarked host's conforming rate is zero next cycle.
	now := periodStart.Add(24 * time.Hour)
	conforming := make(map[string]bool, hosts)
	for _, m := range fleet {
		conforming[m.id] = true
	}
	var last enforce.CycleReport
	var tailConform []float64
	const cycles = 20
	for cycle := 0; cycle < cycles; cycle++ {
		for _, m := range fleet {
			local := perHost
			localConf := perHost
			if !conforming[m.id] {
				localConf = 0
			}
			rep, err := m.agent.Cycle(now, local, localConf)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Enforced {
				t.Fatalf("granted entitlement not enforced for %s", ent.Key())
			}
			conforming[m.id] = bpf.HostGroup(m.id) >= rep.NonConformGroups
			last = rep
		}
		if cycle >= cycles-8 {
			tailConform = append(tailConform, last.ConformRate)
		}
	}
	// The enforced entitled rate over TCP matches the granted contract.
	if math.Abs(last.EntitledRate-ent.Rate) > 1e-3 {
		t.Errorf("enforced entitled rate %v != granted %v", last.EntitledRate, ent.Rate)
	}
	// The fleet's conforming aggregate hovers around the entitlement. Host
	// quantization (10 hosts = 20%-of-entitlement steps) leaves slack, so
	// judge the average of the trailing cycles.
	avgConform := 0.0
	for _, v := range tailConform {
		avgConform += v
	}
	avgConform /= float64(len(tailConform))
	if avgConform > ent.Rate*1.4 || avgConform < ent.Rate*0.4 {
		t.Errorf("conforming aggregate avg %v vs entitled %v", avgConform, ent.Rate)
	}

	// Accountability: the fleet exceeded its entitlement, so responsibility
	// for any drops lies with the service team.
	if got := contract.Accountability(ent.Rate, float64(hosts)*perHost, false); got != contract.ServiceTeam {
		t.Errorf("accountability = %v, want service-team", got)
	}
}

func TestGrantedContractDrivesDrillOutcome(t *testing.T) {
	// The drill's entitlement is honored end-to-end: run the compressed
	// drill and verify the §3.2 demarcation on its measured outcome.
	opts := netsim.DefaultDrillOptions()
	opts.Hosts = 16
	opts.StageTicks = 30
	rep, err := netsim.RunDrill(opts)
	if err != nil {
		t.Fatal(err)
	}
	total, conform, entitled := rep.ServiceRates()
	// During the 100% stage: conforming traffic within entitlement was
	// delivered → no breach for the conforming component.
	var stage *netsim.DrillStage
	for i := range rep.Stages {
		if rep.Stages[i].Name == "acl-100" {
			stage = &rep.Stages[i]
		}
	}
	if stage == nil {
		t.Fatal("no acl-100 stage")
	}
	i := stage.End - 1
	if conform[i] > entitled[i]*1.25 {
		t.Errorf("conforming %v exceeded entitlement %v", conform[i], entitled[i])
	}
	confLoss, _ := rep.LossSeries()
	if contract.Accountability(entitled[i], conform[i], confLoss[i] < 0.01) == contract.NetworkTeam {
		t.Error("network team blamed while conforming traffic was delivered")
	}
	// The service's total exceeded its entitlement mid-drill → the excess
	// is on the service team.
	mid := rep.Stages[2].Start
	if total[mid] > entitled[mid] {
		if got := contract.Accountability(entitled[mid], total[mid], false); got != contract.ServiceTeam {
			t.Errorf("accountability = %v, want service-team", got)
		}
	}
}

func TestIngressMeteringEndToEndOverTCP(t *testing.T) {
	// §8 ingress metering across real sockets: coordinator at the
	// destination, offers from source regions.
	db := contractdb.NewStore()
	err := db.Put(contract.Contract{
		NPG: "Sink", SLO: 0.999, Approved: true,
		Entitlements: []contract.Entitlement{{
			NPG: "Sink", Class: contract.ClassB, Region: "D",
			Direction: contract.Ingress, Rate: 100e9,
			Start: periodStart, End: periodStart.Add(90 * 24 * time.Hour),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	kvL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	kvSrv := kvstore.NewServer(kvL, kvstore.New())
	defer kvSrv.Close()

	coordKV, err := kvstore.Dial(kvSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer coordKV.Close()
	coord, err := enforce.NewIngressCoordinator(db, coordKV, "Sink", contract.ClassB, "D",
		[]topology.Region{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}

	srcKV, err := kvstore.Dial(kvSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer srcKV.Close()
	// Source regions publish offers over their own connections.
	if err := enforce.PublishIngressOffer(srcKV, "Sink", contract.ClassB, "D", "A", 150e9, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := enforce.PublishIngressOffer(srcKV, "Sink", contract.ClassB, "D", "B", 50e9, time.Minute); err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Cycle(periodStart.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Enforced {
		t.Fatal("ingress entitlement not enforced")
	}
	// Sources read their meters remotely: 75G and 25G.
	a, ok, err := enforce.FetchIngressMeter(srcKV, "Sink", contract.ClassB, "D", "A")
	if err != nil || !ok || math.Abs(a-75e9) > 1e-3 {
		t.Errorf("meter A = %v %v %v, want 75e9", a, ok, err)
	}
	b, ok, err := enforce.FetchIngressMeter(srcKV, "Sink", contract.ClassB, "D", "B")
	if err != nil || !ok || math.Abs(b-25e9) > 1e-3 {
		t.Errorf("meter B = %v %v %v, want 25e9", b, ok, err)
	}
}
