// Capacity planning example: what happens when approval cannot grant
// everything (§4.3). The network team has two levers — negotiate demand
// down (the §8 counter-proposals) or build capacity (the planner's upgrade
// recommendations). This example runs both against the same scarce backbone.
//
//	go run ./examples/capacityplanning
package main

import (
	"fmt"
	"log"
	"time"

	"entitlement/internal/approval"
	"entitlement/internal/contractdb"
	"entitlement/internal/core"
	"entitlement/internal/flow"
	"entitlement/internal/planner"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
	"entitlement/internal/traffic"
)

func main() {
	// A backbone deliberately too small for the demand.
	topoOpts := topology.DefaultBackboneOptions()
	topoOpts.Regions = 5
	topoOpts.Chords = 2
	topoOpts.MinCapGbps = 400
	topoOpts.MaxCapGbps = 800
	topo, err := topology.Backbone(topoOpts)
	if err != nil {
		log.Fatal(err)
	}
	history, err := traffic.GenerateDemands(traffic.DefaultOntology(0), traffic.MatrixOptions{
		Regions: topo.RegionsSorted(), TotalRate: 12e12,
		Days: 100, Step: time.Hour, Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	opts := core.DefaultOptions(time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC))
	opts.MinPipeRate = 5e9
	opts.Approval = approval.Options{
		RepresentativeTMs: 3,
		Risk:              risk.Options{Scenarios: 40, Seed: 3},
		Seed:              4,
	}

	// --- First pass: the asks exceed what the network can guarantee. ------
	fw := core.New(topo, contractdb.NewStore())
	base, err := fw.EstablishContracts(history, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first pass: %.1f%% of requested bandwidth approved, %d counter-proposals\n",
		100*base.Approval.ApprovalFraction(), len(base.Proposals))
	for i, p := range base.Proposals {
		if i >= 3 {
			fmt.Printf("  ... and %d more\n", len(base.Proposals)-3)
			break
		}
		fmt.Printf("  %-40s asked %7.1fG, admittable %7.1fG\n",
			p.Hose.Key(), p.Hose.Rate/1e9, p.AdmittableRate/1e9)
	}

	// --- Lever 1: automated negotiation (§8). -----------------------------
	final, rounds, err := fw.EstablishContractsNegotiated(history, opts, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlever 1 — negotiate: %d rounds, final approval %.1f%% of the (reduced) asks\n",
		len(rounds), 100*final.Approval.ApprovalFraction())

	// --- Lever 2: build capacity (planner). --------------------------------
	// The unmet original demand drives the upgrade plan.
	var demands []flow.Demand
	for i, pf := range base.Pipes {
		p := pf.Pipe
		demands = append(demands, flow.Demand{
			Key: fmt.Sprintf("%d/%s", i, p.Key()), Src: p.Src, Dst: p.Dst,
			Rate: p.Rate, Class: int(p.Class),
		})
	}
	planOpts := planner.Options{Scenarios: 60, Seed: 5}
	before, err := planner.Analyze(topo, demands, planOpts)
	if err != nil {
		log.Fatal(err)
	}
	plan, after, _, err := planner.RecommendUpgrades(topo, demands, planOpts, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlever 2 — build: %.1f%% of pipe demand admitted before upgrades\n",
		100*before.AdmittedFraction())
	for i, u := range plan {
		fmt.Printf("  %d. upgrade %s->%s from %.0fG to %.0fG\n",
			i+1, u.Src, u.Dst, u.OldCapacity/1e9, u.NewCapacity/1e9)
	}
	fmt.Printf("  after the plan: %.1f%% admitted\n", 100*after.AdmittedFraction())
	fmt.Println("\nthe contract framework makes both levers explicit: reduced asks become")
	fmt.Println("enforceable guarantees now, and binding links become the build plan.")
}
