package enforce

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"entitlement/internal/obs"
)

// These tests pin the RunOptions callback contract: per cycle at most one
// OnError fires, it fires before OnCycle, hard failures suppress OnCycle,
// and degraded cycles deliver a typed *DegradedError.

// runEvents drives Run until stop() and records the callback sequence as
// "error:<msg-kind>" / "cycle" strings in arrival order.
func runEvents(t *testing.T, a *Agent, now func() time.Time, wantCycles int) []string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	var events []string
	cycles := 0
	done := make(chan error, 1)
	go func() {
		done <- a.Run(ctx, func() (float64, float64) { return 10e12, 10e12 }, RunOptions{
			Period: time.Millisecond,
			Now:    now,
			OnError: func(err error) {
				mu.Lock()
				var de *DegradedError
				if errors.As(err, &de) {
					events = append(events, "error:degraded")
				} else {
					events = append(events, "error:hard")
				}
				mu.Unlock()
			},
			OnCycle: func(CycleReport) {
				mu.Lock()
				events = append(events, "cycle")
				cycles++
				if cycles >= wantCycles {
					cancel()
				}
				mu.Unlock()
			},
		})
	}()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop")
	}
	mu.Lock()
	defer mu.Unlock()
	return append([]string(nil), events...)
}

func TestRunHealthyCyclesFireOnCycleOnly(t *testing.T) {
	a, _, _ := agentFixture(t, 5e12)
	now := tStart.Add(time.Hour)
	events := runEvents(t, a, func() time.Time { return now }, 4)
	for i, e := range events {
		if e != "cycle" {
			t.Fatalf("event %d = %q, want only \"cycle\" events on healthy cycles", i, e)
		}
	}
	if len(events) < 4 {
		t.Fatalf("only %d events", len(events))
	}
}

func TestRunDegradedCyclesFireOneErrorBeforeEachCycle(t *testing.T) {
	a, _, ts, _ := degradedFixture(t, time.Hour)
	now := tStart.Add(time.Hour)
	// Warm cycle so the caches hold data, then trip the store: every
	// subsequent cycle is degraded (fail-static on cached aggregates).
	if _, err := a.Cycle(now, 10e12, 10e12); err != nil {
		t.Fatal(err)
	}
	ts.down = true
	events := runEvents(t, a, func() time.Time { return now.Add(time.Second) }, 4)
	// The sequence must be a strict alternation error:degraded, cycle,
	// error:degraded, cycle, ... — exactly one OnError per cycle, always
	// delivered first.
	for i, e := range events {
		want := "error:degraded"
		if i%2 == 1 {
			want = "cycle"
		}
		if e != want {
			t.Fatalf("event %d = %q, want %q (sequence %v)", i, e, want, events)
		}
	}
	if len(events) < 8 {
		t.Fatalf("only %d events", len(events))
	}
}

func TestRunDegradedErrorMessageAndReport(t *testing.T) {
	a, _, ts, _ := degradedFixture(t, time.Hour)
	now := tStart.Add(time.Hour)
	if _, err := a.Cycle(now, 10e12, 10e12); err != nil {
		t.Fatal(err)
	}
	ts.down = true
	rep, err := a.Cycle(now.Add(time.Minute), 10e12, 10e12)
	if err != nil {
		t.Fatal(err)
	}
	de := &DegradedError{Report: rep}
	msg := de.Error()
	if !strings.HasPrefix(msg, "enforce: degraded cycle (stale ") {
		t.Errorf("message format changed: %q", msg)
	}
	if !strings.Contains(msg, "injected outage") {
		t.Errorf("message lost the fault detail: %q", msg)
	}
	if de.Report.StaleFor == 0 {
		t.Error("wrapped report lost StaleFor")
	}
}

// TestAgentMetricsTransitions checks the transition semantics of the
// enforcement gauges/counters through the scraped exposition: a fleet-wide
// dashboard needs failopen_transitions_total to fire once per outage, not
// once per cycle, and the *_agents gauges to fall back to their baseline
// after recovery.
func TestAgentMetricsTransitions(t *testing.T) {
	scrape := func() obs.Scrape {
		var b strings.Builder
		obs.Default().WritePrometheus(&b)
		s, err := obs.ParseText(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("scrape: %v", err)
		}
		return s
	}
	a, _, ts, td := degradedFixture(t, time.Minute)
	now := tStart.Add(time.Hour)
	if _, err := a.Cycle(now, 10e12, 10e12); err != nil {
		t.Fatal(err)
	}
	base := scrape()

	// Outage: several degraded cycles, then past the budget → fail-open.
	ts.down, td.down = true, true
	for i := 1; i <= 3; i++ { // within budget: degraded, fail-static
		if _, err := a.Cycle(now.Add(time.Duration(i)*time.Second), 10e12, 10e12); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // past budget: fail-open, repeatedly
		rep, err := a.Cycle(now.Add(2*time.Minute+time.Duration(i)*time.Second), 10e12, 10e12)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.FailedOpen {
			t.Fatal("cycle past budget did not fail open")
		}
	}
	mid := scrape()
	if got := mid.Value("entitlement_enforce_degraded_agents") - base.Value("entitlement_enforce_degraded_agents"); got != 1 {
		t.Errorf("degraded_agents delta during outage = %v, want 1", got)
	}
	if got := mid.Value("entitlement_enforce_failopen_agents") - base.Value("entitlement_enforce_failopen_agents"); got != 1 {
		t.Errorf("failopen_agents delta during outage = %v, want 1", got)
	}
	if got := mid.Value("entitlement_enforce_failopen_transitions_total") - base.Value("entitlement_enforce_failopen_transitions_total"); got != 1 {
		t.Errorf("failopen_transitions delta = %v, want exactly 1 despite 3 fail-open cycles", got)
	}
	if got := mid.Value("entitlement_enforce_degraded_cycles_total") - base.Value("entitlement_enforce_degraded_cycles_total"); got != 6 {
		t.Errorf("degraded_cycles delta = %v, want 6", got)
	}

	// Recovery: dependencies return, gauges fall back, stale age resets.
	ts.down, td.down = false, false
	if _, err := a.Cycle(now.Add(3*time.Minute), 10e12, 10e12); err != nil {
		t.Fatal(err)
	}
	after := scrape()
	if got := after.Value("entitlement_enforce_degraded_agents") - base.Value("entitlement_enforce_degraded_agents"); got != 0 {
		t.Errorf("degraded_agents delta after recovery = %v, want 0", got)
	}
	if got := after.Value("entitlement_enforce_failopen_agents") - base.Value("entitlement_enforce_failopen_agents"); got != 0 {
		t.Errorf("failopen_agents delta after recovery = %v, want 0", got)
	}
	if got := after.Value(`entitlement_enforce_stale_seconds{host="h1"}`); got != 0 {
		t.Errorf("stale_seconds{h1} after recovery = %v, want 0", got)
	}
}
