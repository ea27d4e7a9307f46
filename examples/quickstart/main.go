// Quickstart: the whole entitlement lifecycle in one file.
//
// It builds a five-region WAN, synthesizes 90 days of traffic for two
// services, establishes entitlement contracts (forecast → segmented hose →
// SLO-aware approval), and then runs a distributed enforcement cycle showing
// the agents marking the over-entitlement service's traffic.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"entitlement/internal/approval"
	"entitlement/internal/bpf"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/core"
	"entitlement/internal/enforce"
	"entitlement/internal/kvstore"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
	"entitlement/internal/traffic"
)

func main() {
	// 1. A small heterogeneous backbone.
	topoOpts := topology.DefaultBackboneOptions()
	topoOpts.Regions = 5
	topoOpts.MinCapGbps = 3000
	topoOpts.MaxCapGbps = 8000
	topo, err := topology.Backbone(topoOpts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("backbone: %d regions, %.0f Tbps total capacity\n",
		topo.NumRegions(), topo.TotalCapacity()/1e12)

	// 2. Ninety days of synthetic history for the dominant services.
	specs := traffic.DefaultOntology(0)
	history, err := traffic.GenerateDemands(specs, traffic.MatrixOptions{
		Regions: topo.RegionsSorted(), TotalRate: 8e12,
		Days: 90, Step: time.Hour, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Establish contracts for the next quarter.
	db := contractdb.NewStore()
	fw := core.New(topo, db)
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	opts := core.DefaultOptions(start)
	opts.MinPipeRate = 5e9
	opts.Approval = approval.Options{
		RepresentativeTMs: 3,
		Risk:              risk.Options{Scenarios: 40, Seed: 2},
		Seed:              3,
	}
	rep, err := fw.EstablishContracts(history, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("granted %d contracts (%.0f%% of requested bandwidth approved)\n",
		len(rep.Contracts), 100*rep.Approval.ApprovalFraction())
	for _, c := range rep.Contracts[:min(3, len(rep.Contracts))] {
		fmt.Printf("  e.g. %s: SLO %.3f, %d entitlements\n", c.NPG, float64(c.SLO), len(c.Entitlements))
	}

	// 4. Run-time enforcement: three Coldstorage hosts sharing a rate store,
	// each with its own agent and BPF map, collectively exceeding the
	// entitlement by 2x.
	var coldRegion topology.Region
	var entitled float64
	cold, ok := db.Get("Coldstorage")
	if !ok {
		log.Fatal("no Coldstorage contract")
	}
	for _, e := range cold.Entitlements {
		if e.Direction == contract.Egress && e.Rate > entitled {
			entitled, coldRegion = e.Rate, e.Region
		}
	}
	fmt.Printf("\nenforcing Coldstorage egress in %s: entitled %.0f Gbps\n", coldRegion, entitled/1e9)

	rates := kvstore.New()
	type hostState struct {
		agent *enforce.Agent
		prog  *bpf.Program
		id    string
	}
	var hostsState []hostState
	perHost := 2 * entitled / 3 // 3 hosts × 2E/3 = 2× the entitlement
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("cold-%d", i)
		prog := bpf.NewProgram(bpf.NewMap())
		agent, err := enforce.NewAgent(enforce.AgentConfig{
			Host: id, NPG: "Coldstorage", Class: cold.Entitlements[0].Class, Region: coldRegion,
			DB: db, Rates: rates, Meter: enforce.NewStateful(), Prog: prog,
			Policy: enforce.HostBased,
		})
		if err != nil {
			log.Fatal(err)
		}
		hostsState = append(hostsState, hostState{agent: agent, prog: prog, id: id})
	}
	now := start.Add(24 * time.Hour)
	for cycle := 0; cycle < 4; cycle++ {
		for _, h := range hostsState {
			rep, err := h.agent.Cycle(now, perHost, perHost)
			if err != nil {
				log.Fatal(err)
			}
			if cycle == 3 {
				// Show the programmed kernel action and a sample packet.
				pkt := h.prog.Egress(bpf.Packet{
					NPG: "Coldstorage", Class: cold.Entitlements[0].Class,
					Region: coldRegion, Host: h.id, FlowHash: 7, Bytes: 1500,
					DSCP: bpf.DSCPForClass(cold.Entitlements[0].Class),
				})
				fmt.Printf("  %s: ratio %.2f → %d/100 groups non-conforming; sample packet DSCP %d (%s)\n",
					h.id, rep.ConformRatio, rep.NonConformGroups, pkt.DSCP,
					map[bool]string{true: "remarked", false: "conforming"}[bpf.IsNonConforming(pkt)])
			}
		}
	}
	fmt.Println("\nquickstart complete: contracts granted, over-entitlement traffic marked.")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
