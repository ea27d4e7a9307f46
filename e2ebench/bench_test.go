package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestCoveredCountsOverlapOnceAndClips(t *testing.T) {
	iv := [][2]int64{{10, 30}, {20, 40}, {50, 60}, {90, 120}, {-5, 2}, {55, 58}}
	// [10,40] + [50,60] + [90,100] + [0,2], clipped to [0,100).
	if got := covered(0, 100, iv); got != 30+10+10+2 {
		t.Fatalf("covered = %d, want 52", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Fatalf("covered(no intervals) = %d", got)
	}
}

func TestAnalyseSelfTimeWithNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "op", start: 0, end: 100, id: 1, op: 0},
		{name: "a", start: 10, end: 50, id: 2, parent: 1, op: 0},
		{name: "b", start: 40, end: 70, id: 3, parent: 1, op: 0},  // overlaps a
		{name: "c", start: 20, end: 30, id: 4, parent: 2, op: -1}, // nested in a; op found through a
		{name: "d", start: 80, end: 90, id: 5, op: 0},             // no parent: filed under op by containment
		{name: "x", start: 0, end: 5, id: 6, op: -1},              // outside every op
	}
	a := analyse(spans, "op")
	want := map[string]int64{"op": 30, "a": 30, "b": 30, "c": 10, "d": 10, "x": 5}
	for i, s := range a.spans {
		if a.self[i] != want[s.name] {
			t.Errorf("self(%s) = %d, want %d", s.name, a.self[i], want[s.name])
		}
	}
	if a.spans[3].op != 0 {
		t.Errorf("nested span resolved to op %d, want 0", a.spans[3].op)
	}
	if gap, total := a.unattributed(); gap != 30 || total != 100 {
		t.Errorf("unattributed = %d of %d, want 30 of 100", gap, total)
	}
	if got := a.unionOf(oneOf("a", "b")); got != 60 {
		t.Errorf("union of a and b = %d, want 60", got)
	}
	if got := a.count(oneOf("a", "b", "c", "x")); got != 3 {
		t.Errorf("spans in ops = %d, want 3 (x belongs to none)", got)
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	var xs []int64
	for i := 1000; i >= 1; i-- {
		xs = append(xs, int64(i))
	}
	if q := quantile(xs, 0.5); q != 500 {
		t.Errorf("p50 of 1..1000 = %d, want 500", q)
	}
	if q := quantile(xs, 0.99); q != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", q)
	}
	if b := beyond(1000, 0.99); b != 10 {
		t.Errorf("samples beyond p99 of 1000 = %d, want 10", b)
	}
	if q := quantile([]int64{7}, 0.99); q != 7 {
		t.Errorf("p99 of one sample = %d", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("quantile of nothing = %d", q)
	}
}

func TestInputsAreSeeded(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 1)
		c, _ := newWorkload(name, 2)
		if a.hash != b.hash {
			t.Errorf("%s: seed 1 hashed %s then %s", name, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 1 and 2 both hash to %s", name, a.hash)
		}
	}
}

func TestAgilityStreamKeepsItsMix(t *testing.T) {
	in := agilityInput{Seed: 5}
	count := map[string]int{}
	const n = 2000
	for i := 0; i < n; i++ {
		op := in.op(i)
		count[op.Kind]++
		if op.Kind != kindResubmit {
			continue
		}
		orig := in.op(op.Of)
		if op.Of > i-8 || orig.Kind != kindFresh || inputHash(orig.Req) != inputHash(op.Req) {
			t.Fatalf("op %d resubmits op %d (%s) as %+v", i, op.Of, orig.Kind, op.Req)
		}
	}
	// Every stratum of 20 holds 3 oversubscribed asks; resubmits with no
	// fresh ask far enough back (the first few) turn fresh.
	if count[kindOversub] != 3*n/20 || count[kindResubmit] < 6*n/20-8 {
		t.Errorf("mix over %d ops: %v", n, count)
	}
	if inputHash(in.op(77)) != inputHash(in.op(77)) {
		t.Error("op 77 differs between two generations")
	}
}

// TestSmokeEveryWorkload runs each workload briefly, traced, through the
// command's entry point: outputs must check out and the result line must
// carry exactly the per-layer metrics BENCHMARK.json names.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	for _, name := range workloadNames {
		for _, traced := range []string{"0", "1"} {
			var out, errs bytes.Buffer
			code := run([]string{"-workload", name, "-seed", "3", "-seconds", "0.6", "-trace", traced}, &out, &errs)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line %q: %v\nstderr: %s", name, lines[len(lines)-1], err, errs.String())
			}
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace %s: exit %d, result %+v\nstderr: %s", name, traced, code, res, errs.String())
			}
			want := endToEndMetrics
			if traced == "1" {
				want = perLayerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s trace %s: metric %s = %+v", name, traced, m.name, got)
				}
			}
			if traced == "0" && res.Metrics["setup_s"].Value <= 0 {
				t.Errorf("%s: setup_s %v", name, res.Metrics["setup_s"].Value)
			}
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errs); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}

// TestBenchmarkJSONMatchesTheCommand keeps BENCHMARK.json, which names the
// benchmark's workloads and metrics, in step with what the command prints.
func TestBenchmarkJSONMatchesTheCommand(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloadNames))
	}
	for i := range spec.Workloads {
		if spec.Workloads[i].Name != workloadNames[i] {
			t.Errorf("workload %d: %q vs %q", i, spec.Workloads[i].Name, workloadNames[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s %s vs %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}
