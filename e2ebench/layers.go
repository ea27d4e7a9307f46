package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// metric names one reported number and its unit.
type metric struct{ name, unit string }

// endToEndMetrics are what a user of the system sees; every workload
// reports each of them. A run with any failed op or check exits non-zero,
// so the failure share is reported as its complement, ok_frac, which a
// passing run keeps above zero.
var endToEndMetrics = []metric{
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"ok_frac", "ratio"},
	{"cpu_us_per_op", "us"},
	{"heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayerMetrics come from the traced run. A layer a workload never
// reaches reports 0 (grantd on fleet-small).
var perLayerMetrics = []metric{
	{"wire.transport.put.p50_us", "us"},
	{"wire.transport.sum.p50_us", "us"},
	{"wire.transport.entitled_rate.p50_us", "us"},
	{"wire.transport.submit.p50_us", "us"},
	{"wire.transport.decide.p50_us", "us"},
	{"wire.transport.put_contract.p50_us", "us"},
	{"wire.transport.us_per_op", "us"},
	{"wire.calls_per_op", "count"},
	{"kvstore.publish.p50_us", "us"},
	{"kvstore.publish.us_per_op", "us"},
	{"kvstore.aggregate.p50_us", "us"},
	{"kvstore.aggregate.us_per_op", "us"},
	{"kvstore.serve.put.p50_us", "us"},
	{"kvstore.serve.sum.p50_us", "us"},
	{"kvstore.keys", "count"},
	{"contractdb.fetch.p50_us", "us"},
	{"contractdb.serve.entitled_rate.p50_us", "us"},
	{"contractdb.push.p50_us", "us"},
	{"enforce.cycle.p50_us", "us"},
	{"enforce.cycle.self_us_per_op", "us"},
	{"enforce.meter.us_per_op", "us"},
	{"enforce.conform_error", "ratio"},
	{"enforce.degraded_frac", "ratio"},
	{"enforce.first_cycle.p50_us", "us"},
	{"granting.submit.p50_us", "us"},
	{"granting.decision_visible.p50_ms", "ms"},
	{"granting.decision_visible.p99_ms", "ms"},
	{"granting.memo_hit_ratio", "ratio"},
	{"granting.batch_size_mean", "count"},
	{"granting.negotiated_frac", "ratio"},
	{"granting.refused_frac", "ratio"},
	{"granting.resubmit_identical_frac", "ratio"},
	{"grantd.queue.p50_ms", "ms"},
	{"grantd.queue.p99_ms", "ms"},
	{"grantd.decide.busy_frac", "ratio"},
	{"grantd.decide.miss.p50_ms", "ms"},
	{"grantd.decide.hit.p50_us", "us"},
	{"grantd.journal.p50_us", "us"},
	{"grantd.push.p50_us", "us"},
	{"process.allocs_per_op", "count"},
	{"process.bytes_per_op", "B"},
	{"process.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.ops", "count"},
}

// endToEnd computes the end-to-end metrics of an untraced phase. Timings,
// throughput and CPU are medians across the phase's windows.
func endToEnd(pr *phaseResult, setupS float64) map[string]float64 {
	ws := windows(pr)
	return map[string]float64{
		"op_p50_ms": medianOver(ws, func(w window) float64 { return ms(quantile(w.lat, 0.50)) }),
		"op_p99_ms": medianOver(ws, func(w window) float64 { return ms(quantile(w.lat, 0.99)) }),
		"ops_per_s": medianOver(ws, func(w window) float64 { return float64(len(w.lat)) / w.dur.Seconds() }),
		"ok_frac":   1 - per(float64(pr.failed), pr.attempted),
		"cpu_us_per_op": medianOver(ws, func(w window) float64 {
			return us(int64(w.cpu)) / float64(len(w.lat))
		}),
		"setup_s": setupS,
	}
}

func hasPrefix(p string) func(string) bool {
	return func(s string) bool { return strings.HasPrefix(s, p) }
}

func oneOf(names ...string) func(string) bool {
	return func(s string) bool {
		for _, n := range names {
			if s == n {
				return true
			}
		}
		return false
	}
}

// perLayer computes the per-layer metrics: span-derived ones from the
// traced phase, process and grantd counters from the untraced phase whose
// end-to-end numbers they explain.
func perLayer(plain, traced *phaseResult, a *analysis, plainP50 float64) map[string]float64 {
	ops := len(a.roots)
	p50 := func(name string, self bool) int64 { return quantile(a.byName(name, self), 0.5) }
	sumDur := func(name string) int64 { return sum(a.byName(name, false)) }
	m := map[string]float64{
		"wire.transport.us_per_op":              per(us(a.sumSelf(hasPrefix("wire.call."))), ops),
		"wire.calls_per_op":                     per(float64(a.count(hasPrefix("wire.call."))), ops),
		"kvstore.publish.p50_us":                us(p50("kvstore.publish", false)),
		"kvstore.publish.us_per_op":             per(us(sumDur("kvstore.publish")), ops),
		"kvstore.aggregate.p50_us":              us(p50("kvstore.aggregate", false)),
		"kvstore.aggregate.us_per_op":           per(us(sumDur("kvstore.aggregate")), ops),
		"kvstore.serve.put.p50_us":              us(p50("wire.serve.put", true)),
		"kvstore.serve.sum.p50_us":              us(p50("wire.serve.sum", true)),
		"kvstore.keys":                          float64(traced.keys),
		"contractdb.fetch.p50_us":               us(p50("contractdb.fetch", false)),
		"contractdb.serve.entitled_rate.p50_us": us(p50("wire.serve.entitled_rate", true)),
		"contractdb.push.p50_us":                us(p50("contractdb.push", false)),
		"enforce.cycle.p50_us":                  us(p50("enforce.cycle", false)),
		"enforce.cycle.self_us_per_op":          per(us(a.sumSelf(oneOf("enforce.cycle", "kv.publish", "kv.aggregate", "db.fetch", "meter.apply"))), ops),
		"enforce.meter.us_per_op":               per(us(sumDur("enforce.meter")), ops),
		"enforce.conform_error":                 traced.conformError,
		"enforce.degraded_frac":                 per(float64(traced.degraded), traced.attempted),
		"enforce.first_cycle.p50_us":            us(p50("enforce.first_cycle", false)),
		"granting.submit.p50_us":                us(p50("granting.submit", false)),
		"grantd.queue.p50_ms":                   ms(p50("grantd.queue", false)),
		"grantd.queue.p99_ms":                   ms(quantile(a.byName("grantd.queue", false), 0.99)),
		"grantd.decide.miss.p50_ms":             ms(p50("grantd.decide.miss", false)),
		"grantd.decide.hit.p50_us":              us(p50("grantd.decide.hit", false)),
		"grantd.journal.p50_us":                 us(p50("grantd.journal", false)),
		"grantd.push.p50_us":                    us(p50("grantd.push", false)),
		"process.allocs_per_op":                 per(float64(plain.process.mallocs), plain.attempted),
		"process.bytes_per_op":                  per(float64(plain.process.bytes), plain.attempted),
		"process.gc_cpu_frac":                   plain.process.gcCPU / max(plain.process.usedCPU, 1e-9),
		"trace.overhead_frac":                   medianOver(windows(traced), func(w window) float64 { return ms(quantile(w.lat, 0.5)) })/plainP50 - 1,
		"trace.ops":                             float64(ops),
	}
	for _, meth := range []string{"put", "sum", "entitled_rate", "submit", "decide", "put_contract"} {
		m["wire.transport."+meth+".p50_us"] = us(p50("wire.call."+meth, true))
	}
	if gap, total := a.unattributed(); total > 0 {
		m["trace.unattributed_frac"] = float64(gap) / float64(total)
	}
	m["grantd.decide.busy_frac"] = float64(a.unionOf(hasPrefix("grantd.decide."))) / float64(traced.wall)
	if ex := traced.agility; ex != nil {
		vis := durs(ex.visible)
		m["granting.decision_visible.p50_ms"] = ms(quantile(vis, 0.5))
		m["granting.decision_visible.p99_ms"] = ms(quantile(vis, 0.99))
	}
	if ex := plain.agility; ex != nil {
		b, e := ex.before, ex.after
		hits, misses := e.MemoHits-b.MemoHits, e.MemoMisses-b.MemoMisses
		decided := int(e.Decided - b.Decided)
		m["granting.memo_hit_ratio"] = per(float64(hits), int(hits+misses))
		m["granting.batch_size_mean"] = per(float64(decided), int(e.Batches-b.Batches))
		m["granting.negotiated_frac"] = per(float64(e.Negotiated-b.Negotiated), decided)
		m["granting.refused_frac"] = per(float64(e.Rejected-b.Rejected), decided)
		m["granting.resubmit_identical_frac"] = per(float64(ex.identical), ex.resubmits)
	}
	return m
}

// writeSpans writes every span of the traced run, one JSON object a line,
// gzipped, to path.
func writeSpans(path string, a *analysis) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	type line struct {
		Op     int32  `json:"op"`
		Name   string `json:"name"`
		ID     string `json:"id"`
		Parent string `json:"parent,omitempty"`
		Start  int64  `json:"start_unix_ns"`
		End    int64  `json:"end_unix_ns"`
		Self   int64  `json:"self_ns"`
	}
	for i, s := range a.spans {
		l := line{Op: s.op, Name: s.name, ID: fmt.Sprintf("%016x", s.id), Start: s.start, End: s.end, Self: a.self[i]}
		if s.parent != 0 {
			l.Parent = fmt.Sprintf("%016x", s.parent)
		}
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
