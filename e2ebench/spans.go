package main

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"entitlement/internal/obs/trace"
)

// span is one timed interval in an op's tree: either a benchmark wrapper
// around a call into one layer's public API, or a span the program
// recorded itself and the traced run read back from its collector. Times
// are Unix nanoseconds.
type span struct {
	name       string
	start, end int64
	id, parent uint64
	// op indexes the op the span belongs to; -1 until resolved through its
	// parent (spans recorded on the program's own goroutines, such as the
	// contract push).
	op int32
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps the traced run's spans in memory; they are analysed and
// written out once the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
	names map[string]string // interned span names: trees repeat a handful
	next  atomic.Uint64
}

func newRecorder() *recorder { return &recorder{names: make(map[string]string)} }

// newID mints a benchmark span ID. The top bit keeps the IDs apart from
// the program's random 64-bit span IDs in practice.
func (r *recorder) newID() uint64 { return 1<<63 | r.next.Add(1) }

// reset drops everything recorded so far (set-up and warm-up calls).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// opRef is the op a driver is running, read by the wrappers it owns.
type opRef struct{ op int32 }

// call times f as a benchmark span named name under parent. setSpan, when
// set, points a wire client at the new span with the sampled bit on, so
// the program's wire.call/wire.serve spans join the op's tree and tail
// sampling keeps it.
func (r *recorder) call(op int32, parent trace.Context, name string, setSpan func(trace.Context), f func() error) error {
	id := r.newID()
	if setSpan != nil && parent.Valid() {
		setSpan(trace.Context{TraceHi: parent.TraceHi, TraceLo: parent.TraceLo, Span: id, Sampled: true})
	}
	start := time.Now()
	err := f()
	end := time.Now()
	r.add(span{name: name, start: start.UnixNano(), end: end.UnixNano(), id: id, parent: parent.Span, op: op})
	return err
}

// addTree files a trace the program's collector retained under op. The
// tree's root is re-parented under `under`; a root named skipRoot is the
// benchmark's own anchor span, already recorded, and is dropped. grantd
// marks decide passes answered from its memo with the note "memo hit";
// those are filed as grantd.decide.hit, the rest as grantd.decide.miss.
func (r *recorder) addTree(op int32, t trace.Tree, under uint64, skipRoot string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, sr := range t.Spans {
		id, _ := strconv.ParseUint(sr.SpanID, 16, 64)
		var parent uint64
		if sr.Parent != "" {
			parent, _ = strconv.ParseUint(sr.Parent, 16, 64)
		} else if sr.Name == skipRoot {
			continue
		} else {
			parent = under
		}
		name := sr.Name
		if name == "grantd.decide" {
			if sr.Note == "memo hit" {
				name = "grantd.decide.hit"
			} else {
				name = "grantd.decide.miss"
			}
		}
		in, ok := r.names[name]
		if !ok {
			in = name
			r.names[name] = name
		}
		r.spans = append(r.spans, span{name: in, start: sr.StartNs, end: sr.StartNs + sr.DurNs, id: id, parent: parent, op: op})
	}
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping stretches once: coalesced grantd batches put the same pass
// into several trees, and a span's children may overlap each other.
func covered(lo, hi int64, iv [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, v := range clipped {
		if open && v[0] <= curB {
			curB = max(curB, v[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v[0], v[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// analysis is the traced run's spans resolved into op trees.
type analysis struct {
	spans    []span
	self     []int64          // self time per span, same index
	children map[uint64][]int // span ID → indexes of its children
	ops      map[int32][]int  // op → indexes of its spans, root first
	roots    map[int32]int    // op → index of its root span
}

// analyse resolves each span's op and parent and computes self times. A
// span is an op's root when it is named rootName; a span recorded without
// a parent inside an op (the meter wrapper) is attached to the smallest
// span of the op that contains it.
func analyse(spans []span, rootName string) *analysis {
	a := &analysis{spans: spans, children: make(map[uint64][]int), ops: make(map[int32][]int), roots: make(map[int32]int)}
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.id] = i
	}
	for i := range spans {
		if spans[i].op >= 0 {
			continue
		}
		if p, ok := byID[spans[i].parent]; ok && spans[i].parent != 0 {
			spans[i].op = spans[p].op
		}
	}
	for i, s := range spans {
		if s.op < 0 {
			continue
		}
		if s.name == rootName && s.parent == 0 {
			a.roots[s.op] = i
		}
		a.ops[s.op] = append(a.ops[s.op], i)
	}
	for _, idx := range a.ops {
		for _, i := range idx {
			s := &spans[i]
			if s.parent != 0 || s.name == rootName {
				continue
			}
			best := -1
			for _, j := range idx {
				c := spans[j]
				if j == i || c.start > s.start || c.end < s.end {
					continue
				}
				if best < 0 || c.dur() < spans[best].dur() {
					best = j
				}
			}
			if best >= 0 {
				s.parent = spans[best].id
			}
		}
	}
	for i, s := range spans {
		if s.parent != 0 {
			a.children[s.parent] = append(a.children[s.parent], i)
		}
	}
	a.self = make([]int64, len(spans))
	for i, s := range spans {
		kids := a.children[s.id]
		iv := make([][2]int64, len(kids))
		for k, c := range kids {
			iv[k] = [2]int64{spans[c].start, spans[c].end}
		}
		a.self[i] = s.dur() - covered(s.start, s.end, iv)
	}
	return a
}

// unattributed sums, over ops, the part of each op's root interval that
// no other span of the op covers, and the ops' total duration.
func (a *analysis) unattributed() (gap, total int64) {
	for op, r := range a.roots {
		root := a.spans[r]
		var iv [][2]int64
		for _, i := range a.ops[op] {
			if i != r {
				iv = append(iv, [2]int64{a.spans[i].start, a.spans[i].end})
			}
		}
		total += root.dur()
		gap += root.dur() - covered(root.start, root.end, iv)
	}
	return gap, total
}

// byName collects durations (self=false) or self times (self=true) of
// every span with the given name, in any op or none.
func (a *analysis) byName(name string, self bool) []int64 {
	var out []int64
	for i, s := range a.spans {
		if s.name != name {
			continue
		}
		if self {
			out = append(out, a.self[i])
		} else {
			out = append(out, s.dur())
		}
	}
	return out
}

// sumSelf totals the self time of spans whose name satisfies match.
func (a *analysis) sumSelf(match func(string) bool) int64 {
	var t int64
	for i, s := range a.spans {
		if match(s.name) {
			t += a.self[i]
		}
	}
	return t
}

// count returns how many spans inside ops satisfy match.
func (a *analysis) count(match func(string) bool) int {
	n := 0
	for _, s := range a.spans {
		if s.op >= 0 && match(s.name) {
			n++
		}
	}
	return n
}

// unionOf returns the wall time covered by the spans whose name satisfies
// match, each overlap counted once.
func (a *analysis) unionOf(match func(string) bool) int64 {
	var iv [][2]int64
	lo, hi := int64(1<<62), int64(0)
	for _, s := range a.spans {
		if match(s.name) {
			iv = append(iv, [2]int64{s.start, s.end})
			lo, hi = min(lo, s.start), max(hi, s.end)
		}
	}
	if len(iv) == 0 {
		return 0
	}
	return covered(lo, hi, iv)
}
