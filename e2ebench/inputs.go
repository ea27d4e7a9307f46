package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/granting"
	"entitlement/internal/hose"
	"entitlement/internal/topology"
)

// Every workload's inputs are generated from the seed alone, before any
// server starts, and hashed, so two runs can show they drove the program
// with the same stream.

// periodStart pins every contract's enforcement period (2026-01-01 UTC), so
// inputs do not depend on the wall clock and resubmits are byte-identical.
var periodStart = time.Unix(1767225600, 0).UTC()

const (
	fleetRegion = topology.Region("R00")
	fleetClass  = contract.C2Low
)

// The fleet: 4 NPGs of 16 hosts each, all in one region and class.
const (
	fleetNPGs  = 4
	fleetHosts = 16
)

type fleetNPG struct {
	NPG            contract.NPG
	Entitled       float64 // bits/s, the stored contract's rate
	Oversubscribed bool    // the hosts' summed rate exceeds Entitled
	HostRates      []float64
}

// genFleet draws per-host egress rates of 0.5–1.5 Gb/s. Even NPGs are
// oversubscribed (entitled to 60% of their hosts' sum: the stateful meter
// must throttle them to it); odd NPGs are entitled to 150% of it.
func genFleet(seed int64) []fleetNPG {
	rng := rand.New(rand.NewPCG(uint64(seed), 0))
	var npgs []fleetNPG
	for n := 0; n < fleetNPGs; n++ {
		g := fleetNPG{NPG: contract.NPG(fmt.Sprintf("fleet%d", n)), Oversubscribed: n%2 == 0}
		total := 0.0
		for h := 0; h < fleetHosts; h++ {
			r := (0.5 + rng.Float64()) * 1e9
			g.HostRates = append(g.HostRates, r)
			total += r
		}
		g.Entitled = total * 1.5
		if g.Oversubscribed {
			g.Entitled = total * 0.6
		}
		npgs = append(npgs, g)
	}
	return npgs
}

// total is the NPG's summed host rate.
func (g *fleetNPG) total() float64 {
	t := 0.0
	for _, r := range g.HostRates {
		t += r
	}
	return t
}

func (g fleetNPG) contract() contract.Contract {
	return contract.Contract{
		NPG: g.NPG, SLO: 0.999, Approved: true,
		Entitlements: []contract.Entitlement{{
			NPG: g.NPG, Class: fleetClass, Region: fleetRegion, Direction: contract.Egress,
			Rate: g.Entitled, Start: periodStart, End: periodStart.AddDate(10, 0, 0),
		}},
	}
}

// Agility op kinds.
const (
	kindFresh    = "fresh"    // a new tenant's ask, sized to be fully approved
	kindOversub  = "oversub"  // a new tenant asking for more than the backbone carries
	kindResubmit = "resubmit" // a byte-identical copy of an earlier fresh ask
)

type agilityOp struct {
	Kind string
	Of   int // resubmit: index of the op it copies
	Req  granting.Request
}

// agilityBlock is the stratum of the agility stream: every run of 20
// consecutive ops holds exactly this mix, in a seeded order. Seeds then
// change which tenant asks what, but not the load's mix, so runs with
// different seeds measure the same system load.
var agilityBlock = []string{
	kindFresh, kindFresh, kindFresh, kindFresh, kindFresh, kindFresh,
	kindFresh, kindFresh, kindFresh, kindFresh, kindFresh,
	kindOversub, kindOversub, kindOversub,
	kindResubmit, kindResubmit, kindResubmit, kindResubmit, kindResubmit, kindResubmit,
}

// agilityInput is the endless, seeded stream of tenant asks: op(i) is a
// pure function of the seed and i, so the drivers can take ops as fast as
// the system answers and the stream never runs out.
type agilityInput struct{ Seed uint64 }

// kind is op i's place in its stratum.
func (in agilityInput) kind(i int) string {
	b := uint64(i / len(agilityBlock))
	r := rand.New(rand.NewPCG(in.Seed, b<<1))
	return agilityBlock[r.Perm(len(agilityBlock))[i%len(agilityBlock)]]
}

// op generates ask i: 55% fresh asks (1, 2 or 3 egress hoses of 1–20 Gb/s
// in distinct regions of grantd's six-region backbone, classes c1_low to
// c4_low), 15% oversubscribed asks (one 30–60 Tb/s hose in c4_high; two of
// every three accept a negotiated grant), and 30% resubmits of a fresh ask
// 8 to 40 ops earlier. Approval walks classes from the most premium down,
// so an oversubscribed ask coalesced into a fresh ask's risk pass cannot
// take the fresh ask's capacity; and oversubscribed asks are never
// resubmitted, because their negotiated volume depends on which other asks
// share their pass.
func (in agilityInput) op(i int) agilityOp {
	r := rand.New(rand.NewPCG(in.Seed, uint64(i)<<1|1))
	op := agilityOp{Kind: in.kind(i)}
	if op.Kind == kindResubmit {
		for j := i - 8 - r.IntN(12); j >= 0 && j >= i-40; j-- {
			if in.kind(j) == kindFresh {
				op.Of = j
				op.Req = in.op(j).Req
				return op
			}
		}
		op.Kind = kindFresh // the stream's first ops have nothing to repeat
	}
	op.Req = granting.Request{NPG: contract.NPG(fmt.Sprintf("tenant%04d", i%tenantNPGs)), StartUnix: periodStart.Unix()}
	if op.Kind == kindOversub {
		op.Req.Negotiate = i%3 != 0
		op.Req.Hoses = []hose.Request{{
			Class: contract.C4High, Region: topology.Region(fmt.Sprintf("R%02d", r.IntN(6))),
			Direction: contract.Egress, Rate: (30 + 30*r.Float64()) * 1e12,
		}}
		return op
	}
	op.Req.Negotiate = r.IntN(2) == 0
	for _, reg := range r.Perm(6)[:1+i%3] {
		op.Req.Hoses = append(op.Req.Hoses, hose.Request{
			Class: contract.Class(r.IntN(int(contract.C4High))), Region: topology.Region(fmt.Sprintf("R%02d", reg)),
			Direction: contract.Egress, Rate: (1 + 19*r.Float64()) * 1e9,
		})
	}
	return op
}

// tenantNPGs is how many NPGs the stream's asks cycle through: ask i+4096
// replaces ask i's contract, so the contract database, like a real one
// whose tenants renew, stops growing once the run has passed 4096 asks.
const tenantNPGs = 4096

// hashedOps is how many asks of the endless agility stream its input hash
// covers: one full cycle of tenant NPGs.
const hashedOps = tenantNPGs

func (in agilityInput) prefix() []agilityOp {
	ops := make([]agilityOp, hashedOps)
	for i := range ops {
		ops[i] = in.op(i)
	}
	return ops
}

// inputHash is the SHA-256 of the canonical JSON of a generated input.
func inputHash(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // generated inputs are plain data; marshalling cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
