// Package experiments reproduces every figure of the paper's evaluation as
// a callable experiment returning structured series. The root bench_test.go
// wraps each experiment in a testing.B benchmark, and cmd/benchgen prints
// the full series; EXPERIMENTS.md records the paper-vs-measured comparison.
//
// Each experiment is deterministic given its options' seeds.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/stats"
	"entitlement/internal/topology"
	"entitlement/internal/traffic"
)

// Series is one labeled curve of an experiment.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Result is one experiment's output.
type Result struct {
	Name     string
	Caption  string
	Series   []Series
	Headline map[string]float64 // key metrics, also reported by the benches
}

// metric registers a headline metric.
func (r *Result) metric(key string, v float64) {
	if r.Headline == nil {
		r.Headline = make(map[string]float64)
	}
	r.Headline[key] = v
}

func (r *Result) addSeries(label string, x, y []float64) {
	r.Series = append(r.Series, Series{Label: label, X: x, Y: y})
}

// indexes returns 0..n-1 as float64 x-values.
func indexes(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}

// --- Figures 1 & 2: service distribution per QoS class --------------------

// ServiceDistribution reproduces Figures 1/2: the share of one QoS class's
// traffic per service, dominated by a handful of (mostly storage) services
// with a long tail.
func ServiceDistribution(class contract.Class, tailServices int) *Result {
	specs := traffic.DefaultOntology(tailServices)
	dist := traffic.ClassDistribution(specs, class)
	r := &Result{
		Name:    fmt.Sprintf("fig-%s", classFigName(class)),
		Caption: fmt.Sprintf("service distribution of QoS %v (%d services)", class, len(dist)),
	}
	x := make([]float64, len(dist))
	y := make([]float64, len(dist))
	top5 := 0.0
	for i, d := range dist {
		x[i] = float64(i + 1)
		y[i] = d.Share
		if i < 5 {
			top5 += d.Share
		}
	}
	r.addSeries("share by rank", x, y)
	r.metric("services", float64(len(dist)))
	r.metric("top5_share", top5)
	// Services needed to cover 80% of the class.
	cum, n80 := 0.0, 0
	for i, d := range dist {
		cum += d.Share
		if cum >= 0.8 {
			n80 = i + 1
			break
		}
	}
	r.metric("services_for_80pct", float64(n80))
	return r
}

func classFigName(c contract.Class) string {
	if c == contract.ClassA {
		return "01-high-qos"
	}
	return "02-low-qos"
}

// --- Figure 3: distinct storage patterns -----------------------------------

// StoragePatterns reproduces Figure 3: Coldstorage's rack-rotation spikes vs
// Warmstorage's smooth diurnal pattern, compared by coefficient of
// variation.
func StoragePatterns(days int) *Result {
	if days <= 0 {
		days = 7
	}
	step := 5 * time.Minute
	cold := traffic.SpikeTrain(traffic.SpikeTrainOptions{
		Base: 2e12 * 0.4, SpikeHeight: 2e12 * 2.4,
		Period: 4 * time.Hour, SpikeWidth: time.Hour,
		Noise: 0.05, Days: days, Step: step, Seed: 31,
	})
	warm := traffic.Diurnal(traffic.DiurnalOptions{
		Base: 3e12, Amplitude: 0.9e12, Noise: 0.05, PeakHour: 20,
		Days: days, Step: step, Seed: 32,
	})
	r := &Result{
		Name:    "fig-03-storage-patterns",
		Caption: "Coldstorage (spikes) vs Warmstorage (diurnal)",
	}
	r.addSeries("coldstorage bits/s", indexes(cold.Len()), cold.Values)
	r.addSeries("warmstorage bits/s", indexes(warm.Len()), warm.Values)
	cv := func(xs []float64) float64 { return stats.StdDev(xs) / stats.Mean(xs) }
	r.metric("coldstorage_cv", cv(cold.Values))
	r.metric("warmstorage_cv", cv(warm.Values))
	r.metric("cv_ratio", cv(cold.Values)/cv(warm.Values))
	return r
}

// --- Figure 7: source concentration ----------------------------------------

// SourceConcentration reproduces Figure 7: the share of traffic to one
// destination contributed by each source region — 67% from the top 3 for a
// storage service.
func SourceConcentration(regions int) *Result {
	if regions < 4 {
		regions = 8
	}
	names := make([]string, regions)
	for i := range names {
		names[i] = fmt.Sprintf("R%02d", i)
	}
	specs := traffic.DefaultOntology(0)
	regionList := make([]topology.Region, 0, regions)
	for _, n := range names {
		regionList = append(regionList, topology.Region(n))
	}
	ds, err := traffic.GenerateDemands(specs, traffic.MatrixOptions{
		Regions: regionList, TotalRate: 20e12, Days: 3, Step: time.Hour, Seed: 17,
	})
	if err != nil {
		panic(err) // deterministic inputs; cannot fail
	}
	// Aggregate Warmstorage's class-B traffic per source across all
	// destinations (the figure is one destination; using all destinations
	// of the concentrated matrix gives the same shape with less noise).
	perSrc := make(map[topology.Region]float64)
	total := 0.0
	for i := range ds.Flows {
		f := &ds.Flows[i]
		if f.NPG != "Warmstorage" || f.Class != contract.ClassB {
			continue
		}
		m := stats.Mean(f.Series.Values)
		perSrc[f.Src] += m
		total += m
	}
	shares := make([]float64, 0, len(perSrc))
	for _, v := range perSrc {
		shares = append(shares, v/total)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(shares)))
	r := &Result{
		Name:    "fig-07-source-concentration",
		Caption: "traffic share per source region toward storage destinations",
	}
	r.addSeries("share by source rank", indexes(len(shares)), shares)
	top3 := 0.0
	for i := 0; i < 3 && i < len(shares); i++ {
		top3 += shares[i]
	}
	r.metric("top3_share", top3)
	r.metric("sources", float64(len(shares)))
	return r
}
