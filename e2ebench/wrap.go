package main

import (
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/enforce"
	"entitlement/internal/kvstore"
	"entitlement/internal/obs/trace"
	"entitlement/internal/topology"
)

// The traced run hands the program these wrappers in place of its real
// clients. Each times the calls into one layer's public API as a benchmark
// span and forwards the span context the program gives it, sampled, so the
// program's own spans below the call join the op's tree. The untraced run
// passes the real clients straight through.

// tracedRates wraps an agent's rate-store client.
type tracedRates struct {
	c      *kvstore.Client
	rec    *recorder
	cur    *opRef
	parent trace.Context
}

func (w *tracedRates) SetTrace(id string)        { w.c.SetTrace(id) }
func (w *tracedRates) SetSpan(ctx trace.Context) { w.parent = ctx }

func (w *tracedRates) Put(key string, value float64, ttl time.Duration) error {
	return w.rec.call(w.cur.op, w.parent, "kvstore.publish", w.c.SetSpan, func() error {
		return w.c.Put(key, value, ttl)
	})
}

func (w *tracedRates) SumPrefix(prefix string) (float64, error) {
	var total float64
	err := w.rec.call(w.cur.op, w.parent, "kvstore.aggregate", w.c.SetSpan, func() error {
		var err error
		total, err = w.c.SumPrefix(prefix)
		return err
	})
	return total, err
}

func (w *tracedRates) Get(key string) (float64, bool, error) { return w.c.Get(key) }
func (w *tracedRates) Delete(key string) error               { return w.c.Delete(key) }

// tracedDB wraps an agent's contract-database client.
type tracedDB struct {
	c      *contractdb.Client
	rec    *recorder
	cur    *opRef
	parent trace.Context
}

func (w *tracedDB) SetTrace(id string)        { w.c.SetTrace(id) }
func (w *tracedDB) SetSpan(ctx trace.Context) { w.parent = ctx }

func (w *tracedDB) EntitledRate(npg contract.NPG, class contract.Class, region topology.Region, dir contract.Direction, at time.Time) (float64, bool, error) {
	var rate float64
	var found bool
	err := w.rec.call(w.cur.op, w.parent, "contractdb.fetch", w.c.SetSpan, func() error {
		var err error
		rate, found, err = w.c.EntitledRate(npg, class, region, dir, at)
		return err
	})
	return rate, found, err
}

// tracedMeter wraps an agent's meter. The agent gives the meter no span
// context; analyse files its span under the agent's meter.apply span.
type tracedMeter struct {
	m   enforce.Meter
	rec *recorder
	cur *opRef
}

func (w *tracedMeter) ConformRatio(entitled, total, conform float64) float64 {
	var r float64
	w.rec.call(w.cur.op, trace.Context{}, "enforce.meter", nil, func() error {
		r = w.m.ConformRatio(entitled, total, conform)
		return nil
	})
	return r
}

func (w *tracedMeter) Reset() { w.m.Reset() }

// tracedSink wraps grantd's contract sink. grantd pushes from its decider
// goroutine, so the spans are filed under their op through the grantd.push
// span that parents them.
type tracedSink struct {
	c      *contractdb.Client
	rec    *recorder
	parent trace.Context
}

func (w *tracedSink) SetSpan(ctx trace.Context) { w.parent = ctx }

func (w *tracedSink) Put(c contract.Contract) error {
	return w.rec.call(-1, w.parent, "contractdb.push", w.c.SetSpan, func() error { return w.c.Put(c) })
}
