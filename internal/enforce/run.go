package enforce

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// Measure supplies a host's local egress measurements for one enforcement
// cycle: the total and conforming bits/s of the agent's flow set since the
// previous cycle.
type Measure func() (localTotal, localConform float64)

// RunOptions configures a long-running agent loop.
//
// Callback contract: OnError and OnCycle are invoked synchronously from
// the Run goroutine with no internal locks held, so they may call back
// into the agent's dependencies (stores, loggers) without deadlocking.
// They are serialized per agent — Run never invokes them concurrently
// with each other or with themselves. Per cycle, at most ONE OnError
// fires, and it fires before OnCycle:
//
//   - hard cycle failure:  OnError(err); OnCycle is NOT called (there is
//     no report to deliver);
//   - degraded cycle:      OnError(*DegradedError), then OnCycle(rep);
//   - healthy cycle:       OnCycle(rep) only.
//
// A slow callback delays the next cycle; keep them cheap or hand off.
type RunOptions struct {
	// Period between cycles; default 1s (the agents are lightweight — one
	// KV publish, two aggregations, one DB query, one map update).
	Period time.Duration
	// OnCycle, if set, observes every completed cycle's report (logging,
	// metrics). Not called when the cycle itself returned a hard error.
	OnCycle func(CycleReport)
	// OnError, if set, observes per-cycle failures — a hard cycle error,
	// or a *DegradedError carrying the report of a cycle that leaned on
	// cached data; the loop continues regardless (transient KV/DB outages
	// must not stop enforcement — the existing BPF actions keep applying
	// in the meantime, which is the fail-static behavior a marking-only
	// datapath affords, and the agent itself fails open once its
	// staleness budget runs out).
	OnError func(error)
	// Now supplies the cycle timestamp; defaults to time.Now. Simulations
	// inject their clock.
	Now func() time.Time
}

// DegradedError is the error OnError receives for a cycle that completed
// degraded (on cached or partial data). It wraps the full report so
// observers can distinguish degraded cycles from hard failures with
// errors.As and inspect what went stale.
type DegradedError struct {
	Report CycleReport
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("enforce: degraded cycle (stale %s): %s",
		e.Report.StaleFor, strings.Join(e.Report.Faults, "; "))
}

// Run drives the agent until ctx is canceled: every Period it measures the
// host's rates, runs one Cycle, and reports per the RunOptions callback
// contract. It returns ctx.Err().
func (a *Agent) Run(ctx context.Context, measure Measure, opts RunOptions) error {
	if opts.Period <= 0 {
		opts.Period = time.Second
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	ticker := time.NewTicker(opts.Period)
	defer ticker.Stop()
	for {
		total, conform := measure()
		rep, err := a.Cycle(opts.Now(), total, conform)
		switch {
		case err != nil:
			if opts.OnError != nil {
				opts.OnError(err)
			}
		default:
			if rep.Degraded && opts.OnError != nil {
				opts.OnError(&DegradedError{Report: rep})
			}
			if opts.OnCycle != nil {
				opts.OnCycle(rep)
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}
