package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"entitlement/internal/bpf"
	"entitlement/internal/contractdb"
	"entitlement/internal/enforce"
	"entitlement/internal/kvstore"
	"entitlement/internal/obs/trace"
	"entitlement/internal/wire"
)

// In fleet-small, one op is one enforce.Agent.Cycle: two kvstore puts, two sum
// aggregates, one contractdb entitled_rate fetch, the meter, and a BPF map
// update. Drivers cycle their agents round-robin in a closed loop; the
// agents' clock is virtual and advances one second per sweep, so the cycle
// period (a setting, not a cost) never enters the measurement.

// driverCount is the number of driver goroutines: two, or one on a
// single-CPU host. GOMAXPROCS is left as the runtime set it.
func driverCount() int { return min(2, runtime.NumCPU()) }

type fleetStack struct {
	rec     *recorder
	store   *kvstore.Store
	kvSrv   *kvstore.Server
	dbSrv   *contractdb.Server
	drivers []*fleetDriver
}

// fleetDriver owns whole NPGs' agents and one connection per server.
type fleetDriver struct {
	kv     *kvstore.Client
	db     *contractdb.Client
	agents []*fleetAgent
	vnow   time.Time
	sweeps int // full passes over the agents, warm-up included
	cur    opRef
	// lastConform is each NPG's aggregate conforming rate as its most
	// recent cycle read it from the store.
	lastConform map[*fleetNPG]float64
}

type fleetAgent struct {
	a     *enforce.Agent
	npg   *fleetNPG
	total float64 // the NPG's summed host rate, the aggregate every cycle must read
	rate  float64 // this host's egress rate
	ratio float64 // the meter's last ConformRatio, fed back as conforming traffic
}

func setupFleet(npgs []fleetNPG, rec *recorder) (st *fleetStack, err error) {
	st = &fleetStack{rec: rec, store: kvstore.New()}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	kvL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.kvSrv = kvstore.NewServerOpts(kvL, st.store, kvstore.ServerOptions{Wire: wire.ServerOptions{Service: "kvstore"}})
	db := contractdb.NewStore()
	for i := range npgs {
		if err := db.Put(npgs[i].contract()); err != nil {
			return st, err
		}
	}
	dbL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.dbSrv = contractdb.NewServerOpts(dbL, db, wire.ServerOptions{Service: "contractdb"})

	nd := driverCount()
	opts := wire.ClientOptions{Codec: wire.CodecBinary, Service: "agent"}
	for d := 0; d < nd; d++ {
		dr := &fleetDriver{vnow: periodStart.Add(time.Hour), lastConform: make(map[*fleetNPG]float64)}
		st.drivers = append(st.drivers, dr)
		if dr.kv, err = kvstore.DialOpts(st.kvSrv.Addr(), opts); err != nil {
			return st, err
		}
		if dr.db, err = contractdb.DialOpts(st.dbSrv.Addr(), opts); err != nil {
			return st, err
		}
		var rates kvstore.RateStore = dr.kv
		var dbase contractdb.Database = dr.db
		if rec != nil {
			rates = &tracedRates{c: dr.kv, rec: rec, cur: &dr.cur}
			dbase = &tracedDB{c: dr.db, rec: rec, cur: &dr.cur}
		}
		for n := d; n < len(npgs); n += nd {
			g := &npgs[n]
			total := g.total()
			for h, rate := range g.HostRates {
				var m enforce.Meter = enforce.NewStateful()
				if rec != nil {
					m = &tracedMeter{m: m, rec: rec, cur: &dr.cur}
				}
				a, err := enforce.NewAgent(enforce.AgentConfig{
					Host: fmt.Sprintf("%s-h%02d", g.NPG, h), NPG: g.NPG, Class: fleetClass, Region: fleetRegion,
					DB: dbase, Rates: rates, Meter: m, Prog: bpf.NewProgram(bpf.NewMap()), Policy: enforce.HostBased,
				})
				if err != nil {
					return st, err
				}
				dr.agents = append(dr.agents, &fleetAgent{a: a, npg: g, total: total, rate: rate, ratio: 1})
			}
		}
	}
	// Warm up with three sweeps: every host has published and every meter
	// has started moving.
	err = parallel(len(st.drivers), func(d int) error {
		dr := st.drivers[d]
		for s := 0; s < 3; s++ {
			for _, fa := range dr.agents {
				rep, err := fa.a.Cycle(dr.vnow, fa.rate, fa.rate*fa.ratio)
				if err != nil {
					return fmt.Errorf("warm-up cycle: %w", err)
				}
				fa.ratio = rep.ConformRatio
			}
			dr.vnow = dr.vnow.Add(time.Second)
			dr.sweeps++
		}
		return nil
	})
	return st, err
}

func (st *fleetStack) close() {
	for _, dr := range st.drivers {
		if dr.kv != nil {
			dr.kv.Close()
		}
		if dr.db != nil {
			dr.db.Close()
		}
	}
	if st.kvSrv != nil {
		st.kvSrv.Close()
	}
	if st.dbSrv != nil {
		st.dbSrv.Close()
	}
}

// parallel runs f(0..n-1) on n goroutines and returns the first error.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// driverResult is one driver's share of a phase.
type driverResult struct {
	lat      []time.Duration
	done     []time.Time
	failed   int
	degraded int
	lost     int // traced ops whose tree was not retained
	failures []string
}

func (r *driverResult) fail(msg string) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, msg)
	}
}

// run drives the fleet for d and checks every cycle's output.
func (st *fleetStack) run(d time.Duration) *phaseResult {
	rec := st.rec
	results := make([]driverResult, len(st.drivers))
	var ops atomic.Int32
	m0 := readProcess()
	cpu := startCPUSampler()
	start := time.Now()
	deadline := start.Add(d)
	parallel(len(st.drivers), func(d int) error {
		dr, res := st.drivers[d], &results[d]
		for {
			for _, fa := range dr.agents {
				if !time.Now().Before(deadline) || (rec != nil && ops.Load() >= maxTracedOps) {
					return nil
				}
				dr.cycle(fa, rec, &ops, res)
			}
			dr.vnow = dr.vnow.Add(time.Second)
			dr.sweeps++
		}
	})
	pr := &phaseResult{start: start, wall: time.Since(start), ticks: cpu.finish()}
	pr.process = readProcess().since(m0)
	for i := range results {
		r := &results[i]
		pr.lat = append(pr.lat, r.lat...)
		pr.done = append(pr.done, r.done...)
		pr.failed += r.failed
		pr.degraded += r.degraded
		pr.lostTraces += r.lost
		pr.failures = append(pr.failures, r.failures...)
	}
	pr.attempted = len(pr.lat)
	// Stateful marking converges: with each host's conforming traffic fed
	// back as its rate times the meter's last ratio, an oversubscribed
	// NPG's aggregate conforming rate settles at its entitlement (Fig 25)
	// and an undersubscribed one's equals its total. The round-robin
	// updates get within 1% in about 15 sweeps, so a phase too short for
	// minSweeps is not judged.
	var errSum float64
	var over int
	for _, dr := range st.drivers {
		if dr.sweeps < minSweeps {
			pr.notes = append(pr.notes, fmt.Sprintf("convergence not checked: %d sweeps, fewer than %d", dr.sweeps, minSweeps))
			continue
		}
		for g, c := range dr.lastConform {
			want := g.total()
			if g.Oversubscribed {
				want = g.Entitled
			}
			e := math.Abs(c-want) / want
			if g.Oversubscribed {
				errSum += e
				over++
			}
			if (g.Oversubscribed && e > convergeTol) || (!g.Oversubscribed && e > 1e-9) {
				pr.violation(fmt.Sprintf("%s: aggregate conforming rate %.6g, want %.6g", g.NPG, c, want))
			}
		}
	}
	pr.conformError = errSum / float64(max(over, 1))
	pr.keys = st.store.Len()
	return pr
}

// maxTracedOps ends a traced fleet phase early: the breakdown needs far
// fewer ops than fleet-small completes, and every traced op keeps ~22 spans
// in memory.
const maxTracedOps = 10000

// convergeTol is how close an oversubscribed NPG's aggregate conforming
// rate must end to its entitlement, after at least minSweeps sweeps.
const (
	convergeTol = 0.01
	minSweeps   = 30
)

// cycle runs and checks one op.
func (dr *fleetDriver) cycle(fa *fleetAgent, rec *recorder, ops *atomic.Int32, res *driverResult) {
	op := ops.Add(1) - 1
	dr.cur.op = op
	var opID uint64
	if rec != nil {
		opID = rec.newID()
	}
	t0 := time.Now()
	rep, err := fa.a.Cycle(dr.vnow, fa.rate, fa.rate*fa.ratio)
	t1 := time.Now()
	res.lat = append(res.lat, t1.Sub(t0))
	res.done = append(res.done, t1)
	if rec != nil {
		// An op whose tree the collector no longer holds is left out of
		// the breakdown rather than analysed without its program spans.
		if t, ok := trace.Default().Tree(rep.TraceID); ok {
			rec.add(span{name: "op", start: t0.UnixNano(), end: t1.UnixNano(), id: opID, op: op})
			rec.addTree(op, t, opID, "")
		} else {
			res.lost++
		}
	}
	if rep.Degraded || rep.FailedOpen {
		res.degraded++
	}
	if msg := fa.check(rep, err); msg != "" {
		res.fail(fmt.Sprintf("op %d (%s): %s", op, fa.npg.NPG, msg))
		return
	}
	fa.ratio = rep.ConformRatio
	dr.lastConform[fa.npg] = rep.ConformRate
}

func (fa *fleetAgent) check(rep enforce.CycleReport, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case rep.Degraded:
		return fmt.Sprintf("degraded: %v", rep.Faults)
	case rep.FailedOpen:
		return "failed open"
	case !rep.Enforced:
		return "not enforced"
	case rep.EntitledRate != fa.npg.Entitled:
		return fmt.Sprintf("entitled rate %v, stored contract says %v", rep.EntitledRate, fa.npg.Entitled)
	case math.Abs(rep.TotalRate-fa.total) > 1e-9*fa.total:
		return fmt.Sprintf("aggregate rate %v, hosts publish %v", rep.TotalRate, fa.total)
	}
	return ""
}
