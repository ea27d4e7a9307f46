package slo

import (
	"time"

	"entitlement/internal/obs/trace"
)

// CycleSpan is one enforcement cycle's trace-stamped outcome, emitted by the
// agent loop (internal/enforce) into the incident black box. Spans are the
// attribution evidence the §3.3 demarcation needs beyond bandwidth samples:
// they say WHICH host's agent degraded or failed open, WHEN, and under which
// trace ID, so an incident envelope can name the failing agents instead of
// just the breached contract.
type CycleSpan struct {
	At       time.Time `json:"at"`
	Host     string    `json:"host"`
	Contract string    `json:"contract"`
	TraceID  string    `json:"trace_id"`
	// Degraded reports the cycle ran on stale rates (fail-static) or worse.
	Degraded bool `json:"degraded,omitempty"`
	// FailedOpen reports the staleness budget was exhausted and enforcement
	// was lifted entirely — the dangerous end of the lifecycle.
	FailedOpen bool `json:"failed_open,omitempty"`
	// StaleFor is how long the rate in force had gone unrefreshed.
	StaleFor time.Duration `json:"stale_for,omitempty"`
	// Tree is the cycle's full span tree (root + phase children + wire
	// RPCs), present when tail sampling retained the trace — incident cycles
	// always are, and their tree holds each phase's error. Replay renders it
	// as the causal path behind the outcome.
	Tree []trace.SpanRecord `json:"tree,omitempty"`
}

// SpanSink receives cycle spans. The black box implements it; the enforce
// agent holds the interface so it never imports disk machinery.
type SpanSink interface {
	RecordSpan(CycleSpan)
}
