// Command contractdb serves the centralized contract database over TCP
// (§3.2 step 4: "all contracts are stored in a database"). Optionally seeds
// a demo contract so agents can be pointed at it immediately.
//
// Usage:
//
//	contractdb [-addr HOST:PORT] [-demo]
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/obs"
	"entitlement/internal/obs/trace"
	"entitlement/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7001", "listen address")
	demo := flag.Bool("demo", false, "seed a demo Coldstorage contract")
	snapshot := flag.String("snapshot", "", "JSON snapshot file: loaded at startup if present, written at shutdown")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (empty disables)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "contractdb: %v\n", err)
		os.Exit(1)
	}
	if *metricsAddr != "" {
		ms, err := obs.Serve(*metricsAddr, nil,
			obs.Route{Pattern: "/debug/traces", Handler: trace.Default().Handler()})
		if err != nil {
			fmt.Fprintf(os.Stderr, "contractdb: metrics server: %v\n", err)
			os.Exit(1)
		}
		defer ms.Close()
		logger.Info("metrics serving", "addr", ms.Addr())
	}

	store := contractdb.NewStore()
	if *snapshot != "" {
		if f, err := os.Open(*snapshot); err == nil {
			if err := store.LoadFrom(f); err != nil {
				f.Close()
				fmt.Fprintf(os.Stderr, "contractdb: load snapshot: %v\n", err)
				os.Exit(1)
			}
			f.Close()
			fmt.Printf("loaded %d contracts from %s\n", len(store.List()), *snapshot)
		}
	}
	if *demo {
		now := time.Now().UTC()
		err := store.Put(contract.Contract{
			NPG: "Coldstorage", SLO: 0.999, Approved: true,
			Entitlements: []contract.Entitlement{{
				NPG: "Coldstorage", Class: contract.C4Low, Region: "TEST",
				Direction: contract.Egress, Rate: 1e12,
				Start: now.Add(-time.Hour), End: now.Add(90 * 24 * time.Hour),
			}},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "contractdb: demo contract: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("seeded demo contract: Coldstorage c4_low TEST egress 1 Tbps")
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "contractdb: %v\n", err)
		os.Exit(1)
	}
	// Each traced request is a wire.serve span labeled with this service,
	// noted with the client-generated request ID (see /debug/traces).
	srv := contractdb.NewServerOpts(l, store, wire.ServerOptions{Service: "contractdb"})
	fmt.Printf("contractdb listening on %s\n", srv.Addr())
	logger.Info("contractdb up", "addr", srv.Addr(), "contracts", store.Len())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("contractdb shutting down")
	logger.Info("contractdb shutting down")
	srv.Close()
	if *snapshot != "" {
		f, err := os.Create(*snapshot)
		if err != nil {
			fmt.Fprintf(os.Stderr, "contractdb: save snapshot: %v\n", err)
			os.Exit(1)
		}
		if err := store.SaveTo(f); err != nil {
			fmt.Fprintf(os.Stderr, "contractdb: save snapshot: %v\n", err)
		}
		f.Close()
		fmt.Printf("saved %d contracts to %s\n", len(store.List()), *snapshot)
	}
}
