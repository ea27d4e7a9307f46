// Command kvstore serves the distributed rate-aggregation store the
// enforcement agents publish through (§5.1). The server compacts expired
// rate entries (dead hosts' leftovers) in the background and drops idle or
// byte-dribbling connections.
//
// Usage:
//
//	kvstore [-addr HOST:PORT] [-compact-every DUR] [-idle-timeout DUR]
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"entitlement/internal/kvstore"
	"entitlement/internal/obs"
	"entitlement/internal/obs/trace"
	"entitlement/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7002", "listen address")
	compactEvery := flag.Duration("compact-every", 30*time.Second, "expired-entry compaction interval (negative disables)")
	idleTimeout := flag.Duration("idle-timeout", 5*time.Minute, "drop connections idle this long (0 disables)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (empty disables)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvstore: %v\n", err)
		os.Exit(1)
	}
	if *metricsAddr != "" {
		ms, err := obs.Serve(*metricsAddr, nil,
			obs.Route{Pattern: "/debug/traces", Handler: trace.Default().Handler()})
		if err != nil {
			fmt.Fprintf(os.Stderr, "kvstore: metrics server: %v\n", err)
			os.Exit(1)
		}
		defer ms.Close()
		logger.Info("metrics serving", "addr", ms.Addr())
	}

	store := kvstore.New()
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvstore: %v\n", err)
		os.Exit(1)
	}
	// Each traced request is a wire.serve span labeled with this service,
	// noted with the client-generated request ID (see /debug/traces).
	srv := kvstore.NewServerOpts(l, store, kvstore.ServerOptions{
		CompactEvery: *compactEvery,
		Wire:         wire.ServerOptions{ReadIdleTimeout: *idleTimeout, Service: "kvstore"},
	})
	fmt.Printf("kvstore listening on %s (compact every %s)\n", srv.Addr(), *compactEvery)
	logger.Info("kvstore up", "addr", srv.Addr(), "compact_every", *compactEvery)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("kvstore shutting down")
	logger.Info("kvstore shutting down")
	srv.Close()
}
