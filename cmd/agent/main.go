// Command agent runs one standalone enforcement agent (Figure 9) against
// live contractdb and kvstore servers over TCP. It synthesizes this host's
// egress measurements (or reads them from a real meter in a production
// deployment), publishes rates, queries the contract, and prints each
// cycle's decision.
//
// The agent is built to outlive its control plane: it starts even when the
// servers are not up yet (connections are dialed lazily with backoff),
// every call carries a deadline, and mid-run outages degrade cycles —
// fail-static within the staleness budget, fail-open beyond it — instead
// of crashing the process.
//
// Run contractdb -demo and kvstore first (or after — the agent waits), then
// one agent per simulated host:
//
//	agent -host cold-001 -npg Coldstorage -class c4_low -region TEST \
//	      -db 127.0.0.1:7001 -kv 127.0.0.1:7002 -rate-gbps 40 -cycles 20
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"entitlement/internal/bpf"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/enforce"
	"entitlement/internal/kvstore"
	"entitlement/internal/obs"
	"entitlement/internal/obs/trace"
	"entitlement/internal/slo"
	"entitlement/internal/topology"
	"entitlement/internal/wire"
)

func main() {
	host := flag.String("host", "host-001", "host ID")
	npg := flag.String("npg", "Coldstorage", "network product group")
	className := flag.String("class", "c4_low", "QoS class")
	region := flag.String("region", "TEST", "source region")
	dbAddr := flag.String("db", "127.0.0.1:7001", "contractdb address")
	kvAddr := flag.String("kv", "127.0.0.1:7002", "kvstore address")
	rateGbps := flag.Float64("rate-gbps", 40, "this host's synthetic egress rate")
	period := flag.Duration("period", time.Second, "enforcement cycle period")
	cycles := flag.Int("cycles", 0, "stop after N cycles (0 = run forever)")
	policyName := flag.String("policy", "host", "remark policy: host or flow")
	dialTimeout := flag.Duration("dial-timeout", 2*time.Second, "per-attempt dial timeout")
	callTimeout := flag.Duration("call-timeout", 2*time.Second, "per-RPC deadline")
	staleness := flag.Duration("staleness-budget", 0, "fail-static window on store outages (0 = 3x rate TTL)")
	sloReport := flag.Bool("slo-report", false, "track this contract's SLO conformance (serve /slo, print the report on exit)")
	blackboxDir := flag.String("blackbox-dir", "", "arm an incident black box in this directory: burn-rate alerts trigger a persistent capture replayable with `sloctl replay` (implies -slo-report)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (empty disables)")
	logLevel := flag.String("log-level", "info", "cycle trace level: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit cycle traces as JSON instead of text")
	flag.Parse()

	if err := run(config{
		host: *host, npg: *npg, className: *className, region: *region,
		dbAddr: *dbAddr, kvAddr: *kvAddr, rateGbps: *rateGbps,
		period: *period, cycles: *cycles, policyName: *policyName,
		dialTimeout: *dialTimeout, callTimeout: *callTimeout, staleness: *staleness,
		sloReport: *sloReport || *blackboxDir != "", blackboxDir: *blackboxDir,
		metricsAddr: *metricsAddr, logLevel: *logLevel, logJSON: *logJSON,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "agent: %v\n", err)
		os.Exit(1)
	}
}

type config struct {
	host, npg, className, region string
	dbAddr, kvAddr               string
	rateGbps                     float64
	period                       time.Duration
	cycles                       int
	policyName                   string
	dialTimeout                  time.Duration
	callTimeout                  time.Duration
	staleness                    time.Duration
	sloReport                    bool
	blackboxDir                  string
	metricsAddr                  string
	logLevel                     string
	logJSON                      bool
}

func run(cfg config) error {
	class, err := contract.ParseClass(cfg.className)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, cfg.logLevel, cfg.logJSON)
	if err != nil {
		return err
	}
	// The conformance engine sees only this agent's own samples (grant vs
	// usage attestation — a single segment of the contract's fleet view);
	// the network-attributed side lives with whoever aggregates delivery
	// ground truth. Real time throughout: SRE-standard windows apply.
	var eng *slo.Engine
	if cfg.sloReport {
		eng = slo.NewEngine(slo.NewRecorder(slo.DefaultRingCapacity), slo.Options{})
	}
	// The incident black box arms itself on the first burn-rate fire and
	// writes a capture this agent's operator can re-drive with
	// `sloctl replay`; closed-incident envelopes are served on /slo/incidents.
	var bb *slo.Blackbox
	if cfg.blackboxDir != "" {
		var err error
		bb, err = slo.NewBlackbox(slo.BlackboxOptions{Dir: cfg.blackboxDir, Logger: logger})
		if err != nil {
			return err
		}
		eng.AttachCapture(bb)
	}
	if cfg.metricsAddr != "" {
		var routes []obs.Route
		if eng != nil {
			routes = append(routes, obs.Route{Pattern: "/slo", Handler: eng.Handler(func() time.Time {
				return time.Now().UTC()
			})})
		}
		if bb != nil {
			routes = append(routes, obs.Route{Pattern: "/slo/incidents", Handler: bb.IncidentsHandler()})
		}
		routes = append(routes, obs.Route{Pattern: "/debug/traces", Handler: trace.Default().Handler()})
		ms, err := obs.Serve(cfg.metricsAddr, nil, routes...)
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		defer ms.Close()
		fmt.Printf("metrics on http://%s/metrics (pprof on /debug/pprof/)\n", ms.Addr())
	}
	// Lazy connections: the agent starts (and keeps running) whether or
	// not the servers are reachable; the wire layer re-dials with capped
	// backoff behind every call. The Logger surfaces per-call client spans
	// — method, request_id, took — at debug level; the request IDs match
	// the ones the servers log, so one grep follows a call end to end.
	opts := wire.ClientOptions{DialTimeout: cfg.dialTimeout, CallTimeout: cfg.callTimeout, Logger: logger, Service: cfg.host}
	db := contractdb.Connect(cfg.dbAddr, opts)
	defer db.Close()
	kv := kvstore.Connect(cfg.kvAddr, opts)
	defer kv.Close()

	policy := enforce.HostBased
	if cfg.policyName == "flow" {
		policy = enforce.FlowBased
	}
	prog := bpf.NewProgram(bpf.NewMap())
	acfg := enforce.AgentConfig{
		Host: cfg.host, NPG: contract.NPG(cfg.npg), Class: class, Region: topology.Region(cfg.region),
		DB: db, Rates: kv, Meter: enforce.NewStateful(), Prog: prog,
		Policy: policy, RateTTL: 10 * cfg.period, StalenessBudget: cfg.staleness,
	}
	if eng != nil {
		acfg.Conformance = eng.Recorder()
	}
	if bb != nil {
		acfg.Spans = bb
	}
	agent, err := enforce.NewAgent(acfg)
	if err != nil {
		return err
	}

	fmt.Printf("agent %s: %s/%s/%s, %s remarking, %.0f Gbps local egress (db %s, kv %s)\n",
		cfg.host, cfg.npg, class, cfg.region, policy, cfg.rateGbps, cfg.dbAddr, cfg.kvAddr)
	// Drive the loop through enforce.Run: the callback contract guarantees
	// OnError/OnCycle are serialized with measure() on the Run goroutine,
	// so the marking feedback below is race-free, and the Logger gives
	// structured per-cycle trace spans with cycle IDs.
	localTotal := cfg.rateGbps * 1e9
	localConform := localTotal
	n := 0
	haveObjective := false
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err = agent.Run(ctx, func() (float64, float64) { return localTotal, localConform }, enforce.RunOptions{
		Period: cfg.period,
		Logger: logger,
		Now:    func() time.Time { return time.Now().UTC() },
		OnError: func(err error) {
			var de *enforce.DegradedError
			if !errors.As(err, &de) {
				// Cycle degrades rather than erroring; anything here is a
				// programming bug, but even then the agent keeps running.
				fmt.Fprintf(os.Stderr, "cycle %3d: error: %v\n", n, err)
			}
		},
		OnCycle: func(rep enforce.CycleReport) {
			mode := ""
			switch {
			case rep.FailedOpen:
				mode = " FAIL-OPEN"
			case rep.Degraded:
				mode = fmt.Sprintf(" DEGRADED(stale %s)", rep.StaleFor.Round(time.Millisecond))
			}
			marked := "conforming"
			if rep.NonConformGroups > 0 && bpf.HostGroup(cfg.host) < rep.NonConformGroups {
				marked = "REMARKED"
			}
			fmt.Printf("cycle %3d: entitled=%.1fG total=%.1fG conform=%.1fG ratio=%.3f groups=%d enforced=%v host=%s%s\n",
				n, rep.EntitledRate/1e9, rep.TotalRate/1e9, rep.ConformRate/1e9,
				rep.ConformRatio, rep.NonConformGroups, rep.Enforced, marked, mode)
			for _, f := range rep.Faults {
				fmt.Fprintf(os.Stderr, "cycle %3d: fault: %s\n", n, f)
			}
			// Feed the marking decision back into the synthetic measurement:
			// if this host is remarked, its conforming egress drops to zero.
			if rep.NonConformGroups > 0 && bpf.HostGroup(cfg.host) < rep.NonConformGroups {
				localConform = 0
			} else {
				localConform = localTotal
			}
			n++
			if eng != nil {
				// The SLO target lives in the approval record; fetch it
				// lazily so the agent still starts when contractdb is down,
				// and keep trying until a cycle finds it.
				if !haveObjective {
					if target, ok, err := db.SLO(contract.NPG(cfg.npg)); err == nil && ok {
						eng.SetObjective(cfg.npg, target)
						haveObjective = true
					}
				}
				eng.Evaluate(time.Now().UTC())
			}
			if cfg.cycles > 0 && n >= cfg.cycles {
				cancel()
			}
		},
	})
	if eng != nil {
		fmt.Println()
		fmt.Print(eng.Report(time.Now().UTC()).Text())
	}
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}
