package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"entitlement/internal/approval"
	"entitlement/internal/bpf"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/enforce"
	"entitlement/internal/granting"
	"entitlement/internal/hose"
	"entitlement/internal/kvstore"
	"entitlement/internal/obs/trace"
	"entitlement/internal/risk"
	"entitlement/internal/topology"
	"entitlement/internal/wire"
)

// In grant-agility, one op is one tenant's contract request, timed from
// the submit call until granting.Client.Decide has returned the decision and
// one enforce.Agent.Cycle for the request's first hose has reported it: the
// paper's agility without the cycle period. Two tenants (one per driver,
// each on its own connections) ask in a closed loop, so their asks meet in
// grantd's queue and coalesce, but a slower host slows the loop instead of
// growing a backlog.

// tmpRoot holds the journal directories, inside the working directory.
const tmpRoot = ".bench_build/tmp"

// decideGrace bounds how long a tenant waits for one decision; an ask
// still undecided then counts as failed, so a wedged grantd cannot hold a
// run past its time limit.
const decideGrace = 30 * time.Second

// cycleAt is when agility cycles run on the agents' clock: inside every
// granted contract's period.
var cycleAt = periodStart.Add(time.Hour)

type agilityStack struct {
	in      *agilityInput
	rec     *recorder
	dbStore *contractdb.Store
	kvStore *kvstore.Store
	dbSrv   *contractdb.Server
	kvSrv   *kvstore.Server
	svc     *granting.Service
	gSrv    *granting.Server
	sink    *contractdb.Client
	walDir  string
	bpfMap  *bpf.Map
	tenants []*tenant
}

// tenant is one driver: its connections to grantd, the contract database
// and the rate store, and the op its traced wrappers file spans under.
type tenant struct {
	host string // the agility agents' host name
	g    *granting.Client
	db   *contractdb.Client
	kv   *kvstore.Client
	cur  opRef
}

// grantdTopology is cmd/grantd's default backbone: six regions at seed 1
// with 4–12 Tb/s links.
func grantdTopology() (*topology.Topology, error) {
	o := topology.DefaultBackboneOptions()
	o.Regions = 6
	o.Seed = 1
	o.MinCapGbps = 4000
	o.MaxCapGbps = 12000
	return topology.Backbone(o)
}

// setupAgility starts grantd at cmd/grantd's defaults (100 risk scenarios,
// 4 representative TMs, SLO 0.999, batches of up to 16, a journal with the
// batch fsync policy) behind the contract database and rate store.
func setupAgility(in *agilityInput, rec *recorder) (st *agilityStack, err error) {
	st = &agilityStack{in: in, rec: rec, dbStore: contractdb.NewStore(), kvStore: kvstore.New(), bpfMap: bpf.NewMap()}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	topo, err := grantdTopology()
	if err != nil {
		return st, err
	}
	dbL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.dbSrv = contractdb.NewServerOpts(dbL, st.dbStore, wire.ServerOptions{Service: "contractdb"})
	kvL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.kvSrv = kvstore.NewServerOpts(kvL, st.kvStore, kvstore.ServerOptions{Wire: wire.ServerOptions{Service: "kvstore"}})

	if st.sink, err = contractdb.DialOpts(st.dbSrv.Addr(), wire.ClientOptions{Service: "grantd", Codec: wire.CodecBinary}); err != nil {
		return st, err
	}
	var sink granting.Sink = st.sink
	if rec != nil {
		sink = &tracedSink{c: st.sink, rec: rec}
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return st, err
	}
	if st.walDir, err = os.MkdirTemp(tmpRoot, "wal-"); err != nil {
		return st, err
	}
	st.svc, err = granting.OpenService(topo, sink, granting.Options{
		Approval: approval.Options{
			RepresentativeTMs: 4,
			DefaultSLO:        0.999,
			Risk:              risk.Options{Scenarios: 100, Seed: 3},
			Seed:              4,
		},
		MaxBatch: 16,
		WAL:      granting.WALOptions{Dir: filepath.Join(st.walDir, "wal"), Fsync: granting.FsyncBatch},
	})
	if err != nil {
		return st, err
	}
	gL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.gSrv = granting.NewServer(gL, st.svc)

	for d := 0; d < driverCount(); d++ {
		t := &tenant{host: fmt.Sprintf("agility%d", d)}
		st.tenants = append(st.tenants, t)
		opts := wire.ClientOptions{Service: "tenant", Codec: wire.CodecBinary}
		if t.g, err = granting.DialOpts(st.gSrv.Addr(), opts); err != nil {
			return st, err
		}
		opts.Service = "agent"
		if t.db, err = contractdb.DialOpts(st.dbSrv.Addr(), opts); err != nil {
			return st, err
		}
		if t.kv, err = kvstore.DialOpts(st.kvSrv.Addr(), opts); err != nil {
			return st, err
		}
	}
	// Warm-up: eight asks decided and enforced one at a time, each in its
	// own region and NPG, so the risk caches and every connection are hot.
	for k := 0; k < 8; k++ {
		t := st.tenants[k%len(st.tenants)]
		req := granting.Request{
			NPG: contract.NPG(fmt.Sprintf("warmup%d", k)), StartUnix: periodStart.Unix(),
			Hoses: []hose.Request{{Class: contract.C2Low, Region: topology.Region(fmt.Sprintf("R%02d", k%6)), Direction: contract.Egress, Rate: 5e9}},
		}
		id, err := t.g.Submit(req)
		if err != nil {
			return st, fmt.Errorf("warm-up submit: %w", err)
		}
		dec, err := t.g.Decide(id, time.Minute)
		if err != nil {
			return st, fmt.Errorf("warm-up decide: %w", err)
		}
		if _, err := st.enforceCycle(t, req, dec, nil); err != nil {
			return st, fmt.Errorf("warm-up cycle: %w", err)
		}
	}
	return st, nil
}

func (st *agilityStack) close() {
	for _, t := range st.tenants {
		if t.g != nil {
			t.g.Close()
		}
		if t.db != nil {
			t.db.Close()
		}
		if t.kv != nil {
			t.kv.Close()
		}
	}
	if st.gSrv != nil {
		st.gSrv.Close()
	}
	if st.svc != nil {
		st.svc.Close()
	}
	if st.sink != nil {
		st.sink.Close()
	}
	if st.dbSrv != nil {
		st.dbSrv.Close()
	}
	if st.kvSrv != nil {
		st.kvSrv.Close()
	}
	if st.walDir != "" {
		os.RemoveAll(st.walDir)
	}
}

// enforceCycle runs the agility cycle: a fresh agent for the request's first
// hose on the tenant's connections, one Cycle, and a check that it enforces
// exactly what was granted (or nothing, for a refusal). The agent's
// published keys and its BPF map entry are then dropped in-process, outside
// the op, so neither the store nor the map grows with the op count.
func (st *agilityStack) enforceCycle(t *tenant, req granting.Request, dec *granting.Decision, onReport func(enforce.CycleReport)) (enforce.CycleReport, error) {
	h := req.Hoses[0]
	var rates kvstore.RateStore = t.kv
	var db contractdb.Database = t.db
	var m enforce.Meter = enforce.NewStateful()
	if st.rec != nil {
		rates = &tracedRates{c: t.kv, rec: st.rec, cur: &t.cur}
		db = &tracedDB{c: t.db, rec: st.rec, cur: &t.cur}
		m = &tracedMeter{m: m, rec: st.rec, cur: &t.cur}
	}
	a, err := enforce.NewAgent(enforce.AgentConfig{
		Host: t.host, NPG: req.NPG, Class: h.Class, Region: h.Region,
		DB: db, Rates: rates, Meter: m, Prog: bpf.NewProgram(st.bpfMap), Policy: enforce.HostBased,
	})
	if err != nil {
		return enforce.CycleReport{}, err
	}
	rep, err := a.Cycle(cycleAt, h.Rate, h.Rate)
	if onReport != nil {
		onReport(rep)
	}
	for _, k := range st.kvStore.Keys("") {
		if strings.HasSuffix(k, "/"+t.host) {
			st.kvStore.Delete(k)
		}
	}
	st.bpfMap.Delete(bpf.MapKey{NPG: req.NPG, Class: h.Class, Region: h.Region})
	if err != nil {
		return rep, err
	}
	granted := dec.Status == granting.StatusApproved || dec.Status == granting.StatusNegotiated
	switch {
	case rep.Degraded || rep.FailedOpen:
		return rep, fmt.Errorf("agility cycle degraded: %v", rep.Faults)
	case !granted && rep.Enforced:
		return rep, fmt.Errorf("%s was %s but its agent enforces %v", req.NPG, dec.Status, rep.EntitledRate)
	case !granted:
		return rep, nil
	case dec.Contract == nil:
		return rep, fmt.Errorf("%s was %s without a contract", req.NPG, dec.Status)
	case !rep.Enforced:
		return rep, fmt.Errorf("%s was %s but its first cycle enforces nothing", req.NPG, dec.Status)
	}
	want := h.Rate
	if dec.Status == granting.StatusNegotiated {
		want = dec.Hoses[0].Approved
	}
	if got := dec.Contract.EntitledRate(h.Class, h.Region, contract.Egress, cycleAt); got != want {
		return rep, fmt.Errorf("%s: contract entitles %v, decision granted %v", req.NPG, got, want)
	}
	if rep.EntitledRate != want {
		return rep, fmt.Errorf("%s: first cycle enforces %v, decision granted %v", req.NPG, rep.EntitledRate, want)
	}
	return rep, nil
}

// agilityExtras are the grant-agility numbers beyond op latency.
type agilityExtras struct {
	visible       []time.Duration // Submit call start → Decide return
	before, after granting.Stats

	mu sync.Mutex // guards the fields below, shared by the tenants
	// resubmits counts checked resubmits, identical those whose decision
	// was byte-identical to the first in full.
	resubmits, identical int
	// decisions holds each checked op's decision, latest each NPG's newest.
	decisions map[int]*granting.Decision
	latest    map[contract.NPG]*granting.Decision
}

// tenantResult is one tenant's share of a phase.
type tenantResult struct {
	driverResult
	visible []time.Duration
}

// run drives the tenants' closed loops for d and checks every decision and
// cycle.
func (st *agilityStack) run(d time.Duration) *phaseResult {
	ex := &agilityExtras{
		before:    st.svc.Stats(),
		decisions: make(map[int]*granting.Decision),
		latest:    make(map[contract.NPG]*granting.Decision),
	}
	results := make([]tenantResult, len(st.tenants))
	var next atomic.Int64
	m0 := readProcess()
	cpu := startCPUSampler()
	start := time.Now()
	deadline := start.Add(d)
	parallel(len(st.tenants), func(k int) error {
		t, res := st.tenants[k], &results[k]
		for time.Now().Before(deadline) {
			i := int(next.Add(1) - 1)
			op := st.in.op(i)
			if err := st.ask(t, i, op, res, ex); err != nil {
				res.fail(fmt.Sprintf("op %d (%s %s): %v", i, op.Kind, op.Req.NPG, err))
			}
		}
		return nil
	})
	pr := &phaseResult{start: start, wall: time.Since(start), ticks: cpu.finish(), agility: ex}
	pr.process = readProcess().since(m0)
	pr.attempted = int(next.Load())
	for i := range results {
		r := &results[i]
		pr.lat = append(pr.lat, r.lat...)
		pr.done = append(pr.done, r.done...)
		pr.failed += r.failed
		pr.lostTraces += r.lost
		pr.failures = append(pr.failures, r.failures...)
		ex.visible = append(ex.visible, r.visible...)
	}
	ex.after = st.svc.Stats()

	// Every granted contract reads back from the contract database exactly
	// as the decision carried it.
	for npg, dec := range ex.latest {
		if dec.Contract == nil {
			continue
		}
		got, ok := st.dbStore.Get(npg)
		if !ok {
			pr.violation(fmt.Sprintf("%s granted but not in the contract database", npg))
			continue
		}
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(dec.Contract)
		if string(a) != string(b) {
			pr.violation(fmt.Sprintf("stored contract %s differs from the decision's %s", a, b))
		}
	}
	ex.decisions, ex.latest = nil, nil // checked; not part of the heap measured next
	return pr
}

// ask runs one op on tenant t: submit, wait for the decision, check it, run
// the agility cycle. The traced run roots the op in an anchor span of the
// program's collector, so grantd's spans join the op's tree, and reads the
// trees back only after the op has ended.
func (st *agilityStack) ask(t *tenant, i int, op agilityOp, res *tenantResult, ex *agilityExtras) error {
	rec := st.rec
	var anchor trace.Span
	var anchorTC trace.Context
	var id string
	var dec *granting.Decision
	submit := func() error {
		var err error
		id, err = t.g.Submit(op.Req)
		return err
	}
	decide := func() error {
		var err error
		dec, err = t.g.Decide(id, decideGrace)
		return err
	}
	if op.Kind != kindResubmit && i >= tenantNPGs {
		// A new tenant takes over an NPG whose earlier tenant has left:
		// its contract goes, so a refusal leaves nothing to enforce.
		st.dbStore.Delete(op.Req.NPG)
	}
	t.cur.op = int32(i)
	t0 := time.Now()
	var err error
	if rec == nil {
		if err = submit(); err == nil {
			err = decide()
		}
	} else {
		anchor = trace.Default().StartRoot("bench.op")
		anchorTC = anchor.Context()
		if err = rec.call(int32(i), anchorTC, "granting.submit", t.g.SetSpan, submit); err == nil {
			err = rec.call(int32(i), anchorTC, "granting.decide", t.g.SetSpan, decide)
		}
		anchor.Finish()
	}
	if err != nil {
		return err
	}
	res.visible = append(res.visible, time.Since(t0))
	if err := checkDecision(i, op, dec, ex); err != nil {
		return err
	}

	var t2 time.Time
	var cycleTrace string
	t1 := time.Now()
	_, err = st.enforceCycle(t, op.Req, dec, func(rep enforce.CycleReport) {
		t2, cycleTrace = time.Now(), rep.TraceID
	})
	if t2.IsZero() {
		return err // no cycle ran
	}
	res.lat = append(res.lat, t2.Sub(t0))
	res.done = append(res.done, t2)
	if rec != nil {
		// An op whose trees the collector no longer holds is left out of
		// the breakdown rather than analysed without its program spans.
		opTree, ok1 := trace.Default().Tree(anchorTC.TraceID())
		cycleTree, ok2 := trace.Default().Tree(cycleTrace)
		if !ok1 || !ok2 {
			res.lost++
			return err
		}
		opID, cycleID := anchorTC.Span, rec.newID()
		rec.add(span{name: "op", start: t0.UnixNano(), end: t2.UnixNano(), id: opID, op: int32(i)})
		rec.add(span{name: "enforce.first_cycle", start: t1.UnixNano(), end: t2.UnixNano(), id: cycleID, parent: opID, op: int32(i)})
		rec.addTree(int32(i), opTree, 0, "bench.op")
		rec.addTree(int32(i), cycleTree, cycleID, "")
	}
	return err
}

// checkDecision checks a decision on its own and, for a resubmit, against
// the decision for the ask it copies, then files it. grantd promises
// byte-identical decisions for the same batch of requests; a resubmit
// coalesced into a different batch is a different risk pass, whose approved
// volumes may differ in their last bits. So a resubmit must get the same
// status and a byte-identical contract, and how many decisions are
// byte-identical in full (apart from the request ID) is counted, not
// required.
func checkDecision(i int, op agilityOp, dec *granting.Decision, ex *agilityExtras) error {
	switch dec.Status {
	case granting.StatusApproved, granting.StatusNegotiated, granting.StatusRejected:
	default:
		return fmt.Errorf("decision %s: %s", dec.Status, dec.Err)
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if orig, ok := ex.decisions[op.Of]; ok && op.Kind == kindResubmit {
		ex.resubmits++
		a, b := *orig, *dec
		a.ID, b.ID = "", ""
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) == string(jb) {
			ex.identical++
		} else {
			ca, _ := json.Marshal(a.Contract)
			cb, _ := json.Marshal(b.Contract)
			if a.Status != b.Status || string(ca) != string(cb) {
				return fmt.Errorf("resubmit of op %d decided differently:\n  first %s\n  again %s", op.Of, ja, jb)
			}
		}
	}
	ex.decisions[i] = dec
	ex.latest[dec.NPG] = dec
	return nil
}
