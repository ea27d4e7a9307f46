package traffic

import (
	"math"
	"testing"
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/stats"
	"entitlement/internal/timeseries"
	"entitlement/internal/topology"
)

func TestDiurnalShape(t *testing.T) {
	s := Diurnal(DiurnalOptions{
		Base: 100, Amplitude: 30, Noise: 0, PeakHour: 20,
		Days: 2, Step: time.Hour, Seed: 1,
	})
	if s.Len() != 48 {
		t.Fatalf("Len = %d, want 48", s.Len())
	}
	// Peak at hour 20, trough at hour 8.
	if s.Values[20] <= s.Values[8] {
		t.Errorf("peak %v not above trough %v", s.Values[20], s.Values[8])
	}
	if math.Abs(s.Values[20]-130) > 1e-9 {
		t.Errorf("peak = %v, want 130", s.Values[20])
	}
	// Daily periodicity without noise.
	if math.Abs(s.Values[5]-s.Values[29]) > 1e-9 {
		t.Errorf("not periodic: %v vs %v", s.Values[5], s.Values[29])
	}
}

func TestDiurnalNonNegativeWithNoise(t *testing.T) {
	s := Diurnal(DiurnalOptions{
		Base: 1, Amplitude: 1, Noise: 3, PeakHour: 12,
		Days: 3, Step: time.Hour, Seed: 5,
	})
	for i, v := range s.Values {
		if v < 0 {
			t.Fatalf("negative sample %d: %v", i, v)
		}
	}
}

func TestSpikeTrainShape(t *testing.T) {
	s := SpikeTrain(SpikeTrainOptions{
		Base: 10, SpikeHeight: 90, Period: 4 * time.Hour, SpikeWidth: time.Hour,
		Noise: 0, Days: 1, Step: time.Hour, Seed: 1,
	})
	// Hours 0,4,8,... are spikes (100), others base (10).
	for i, v := range s.Values {
		want := 10.0
		if i%4 == 0 {
			want = 100
		}
		if math.Abs(v-want) > 1e-9 {
			t.Errorf("hour %d = %v, want %v", i, v, want)
		}
	}
}

func TestSpikeVsDiurnalVariability(t *testing.T) {
	// The Coldstorage pattern must be spikier than Warmstorage (Fig 3):
	// compare coefficient of variation.
	spike := SpikeTrain(SpikeTrainOptions{
		Base: 40, SpikeHeight: 240, Period: 4 * time.Hour, SpikeWidth: time.Hour,
		Noise: 0.05, Days: 7, Step: 5 * time.Minute, Seed: 2,
	})
	smooth := Diurnal(DiurnalOptions{
		Base: 100, Amplitude: 30, Noise: 0.05, PeakHour: 20,
		Days: 7, Step: 5 * time.Minute, Seed: 2,
	})
	cv := func(xs []float64) float64 { return stats.StdDev(xs) / stats.Mean(xs) }
	if cv(spike.Values) <= 1.5*cv(smooth.Values) {
		t.Errorf("spike CV %v not clearly above smooth CV %v", cv(spike.Values), cv(smooth.Values))
	}
}

func TestTrendSeasonalGrowth(t *testing.T) {
	s := TrendSeasonal(GrowthOptions{
		Base: 100, DailyGrowth: 2, WeeklyAmp: 0, DiurnalAmp: 0,
		Noise: 0, Days: 30, Step: 24 * time.Hour, Seed: 1,
	})
	if s.Len() != 30 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Day 10 ≈ 120.
	if math.Abs(s.Values[10]-120) > 1e-9 {
		t.Errorf("day 10 = %v, want 120", s.Values[10])
	}
}

func TestTrendSeasonalHoliday(t *testing.T) {
	s := TrendSeasonal(GrowthOptions{
		Base: 100, HolidayBump: 50, Holidays: []int{3},
		Noise: 0, Days: 7, Step: 24 * time.Hour, Seed: 1,
	})
	if s.Values[3] <= s.Values[2] {
		t.Errorf("holiday %v not above neighbor %v", s.Values[3], s.Values[2])
	}
	if math.Abs(s.Values[3]-s.Values[2]-50) > 5 {
		t.Errorf("holiday bump = %v, want ~50", s.Values[3]-s.Values[2])
	}
}

func TestInjectIncident(t *testing.T) {
	base := make([]float64, 60)
	for i := range base {
		base[i] = 100
	}
	s := timeseries.New(DefaultStart, time.Minute, base)
	inc := Incident{At: 10 * time.Minute, Ramp: 3 * time.Minute, Duration: 20 * time.Minute, Magnitude: 0.5}
	out := InjectIncident(s, inc)
	// Before: untouched.
	if out.Values[5] != 100 {
		t.Errorf("pre-incident = %v", out.Values[5])
	}
	// During plateau: +50% (§2.2: peak 50% above predicted).
	if math.Abs(out.Values[20]-150) > 1e-9 {
		t.Errorf("plateau = %v, want 150", out.Values[20])
	}
	// During ramp: strictly between.
	if out.Values[11] <= 100 || out.Values[11] >= 150 {
		t.Errorf("ramp sample = %v", out.Values[11])
	}
	// After: rollback to normal.
	if out.Values[40] != 100 {
		t.Errorf("post-incident = %v", out.Values[40])
	}
	// Original untouched.
	if s.Values[20] != 100 {
		t.Error("InjectIncident mutated input")
	}
}

func TestDefaultOntologySharesSumToOne(t *testing.T) {
	specs := DefaultOntology(40)
	total := 0.0
	highTouch := 0
	for _, s := range specs {
		total += s.VolumeShare
		if s.HighTouch {
			highTouch++
		}
		mixSum := 0.0
		for _, f := range s.ClassMix {
			mixSum += f
		}
		if math.Abs(mixSum-1) > 1e-9 {
			t.Errorf("%s class mix sums to %v", s.Name, mixSum)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("volume shares sum to %v, want 1", total)
	}
	// Paper: fewer than 10 high-touch services.
	if highTouch == 0 || highTouch >= 10 {
		t.Errorf("high-touch services = %d, want 1..9", highTouch)
	}
	if len(specs) != 7+40 {
		t.Errorf("total services = %d, want 47", len(specs))
	}
}

func TestClassDistributionDominance(t *testing.T) {
	specs := DefaultOntology(50)
	for _, class := range []contract.Class{contract.ClassA, contract.ClassB} {
		dist := ClassDistribution(specs, class)
		if len(dist) == 0 {
			t.Fatalf("no services in class %v", class)
		}
		total := 0.0
		for _, d := range dist {
			total += d.Share
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("class %v shares sum to %v", class, total)
		}
		// Sorted descending.
		for i := 1; i < len(dist); i++ {
			if dist[i].Share > dist[i-1].Share {
				t.Errorf("class %v distribution not sorted", class)
			}
		}
		// A few dominating services account for the majority (§2.1).
		top5 := 0.0
		for i := 0; i < 5 && i < len(dist); i++ {
			top5 += dist[i].Share
		}
		if top5 < 0.5 {
			t.Errorf("class %v top-5 share = %v, want > 0.5", class, top5)
		}
	}
}

func TestClassDistributionEmptyClass(t *testing.T) {
	specs := []ServiceSpec{{Name: "X", VolumeShare: 1, ClassMix: map[contract.Class]float64{contract.C1Low: 1}}}
	if got := ClassDistribution(specs, contract.C4High); got != nil {
		t.Errorf("empty class distribution = %v", got)
	}
}

func regions(n int) []topology.Region {
	out := make([]topology.Region, n)
	for i := range out {
		out[i] = topology.Region(string(rune('A' + i)))
	}
	return out
}

func TestGenerateDemandsBasics(t *testing.T) {
	specs := DefaultOntology(5)
	ds, err := GenerateDemands(specs, MatrixOptions{
		Regions: regions(5), TotalRate: 100e12, Days: 2, Step: time.Hour, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Flows) == 0 {
		t.Fatal("no flows generated")
	}
	for i := range ds.Flows {
		f := &ds.Flows[i]
		if f.Src == f.Dst {
			t.Fatalf("self-traffic flow %s %s->%s", f.NPG, f.Src, f.Dst)
		}
		if f.Series.Len() != 48 {
			t.Fatalf("series length %d", f.Series.Len())
		}
		for _, v := range f.Series.Values {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("bad sample %v in %s", v, f.NPG)
			}
		}
	}
	// Total mean rate near requested (noise and flooring cause slack).
	agg := ds.Aggregate(FlowFilter{})
	mean := stats.Mean(agg.Values)
	if mean < 60e12 || mean > 140e12 {
		t.Errorf("aggregate mean %v, want ~100e12", mean)
	}
}

func TestGenerateDemandsValidation(t *testing.T) {
	specs := DefaultOntology(0)
	if _, err := GenerateDemands(specs, MatrixOptions{Regions: regions(1), TotalRate: 1, Days: 1, Step: time.Hour}); err == nil {
		t.Error("single region accepted")
	}
	if _, err := GenerateDemands(specs, MatrixOptions{Regions: regions(3), TotalRate: 0, Days: 1, Step: time.Hour}); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestGenerateDemandsDeterministic(t *testing.T) {
	specs := DefaultOntology(3)
	opts := MatrixOptions{Regions: regions(4), TotalRate: 1e12, Days: 1, Step: time.Hour, Seed: 11}
	a, _ := GenerateDemands(specs, opts)
	b, _ := GenerateDemands(specs, opts)
	if len(a.Flows) != len(b.Flows) {
		t.Fatal("flow counts differ across runs")
	}
	for i := range a.Flows {
		if a.Flows[i].NPG != b.Flows[i].NPG || a.Flows[i].Src != b.Flows[i].Src {
			t.Fatal("flow identity differs")
		}
		for j := range a.Flows[i].Series.Values {
			if a.Flows[i].Series.Values[j] != b.Flows[i].Series.Values[j] {
				t.Fatal("series values differ")
			}
		}
	}
}

func TestAggregateFilter(t *testing.T) {
	specs := DefaultOntology(0)
	ds, err := GenerateDemands(specs, MatrixOptions{
		Regions: regions(4), TotalRate: 10e12, Days: 1, Step: time.Hour, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := ds.Aggregate(FlowFilter{})
	ads := ds.Aggregate(FlowFilter{NPG: "Ads"})
	if ads == nil {
		t.Fatal("Ads aggregate empty")
	}
	if stats.Mean(ads.Values) >= stats.Mean(all.Values) {
		t.Error("single NPG aggregate not below total")
	}
	if got := ds.Aggregate(FlowFilter{NPG: "NoSuch"}); got != nil {
		t.Error("bogus NPG aggregate not nil")
	}
	classOnly := ds.Aggregate(FlowFilter{Class: contract.ClassA, HasClass: true})
	if classOnly == nil {
		t.Fatal("class aggregate empty")
	}
}

func TestPerDestinationAndPerSource(t *testing.T) {
	specs := DefaultOntology(0)
	rs := regions(5)
	ds, err := GenerateDemands(specs, MatrixOptions{
		Regions: rs, TotalRate: 10e12, Days: 1, Step: time.Hour, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Find a (npg, class, src) with flows.
	f := ds.Flows[0]
	perDst := ds.PerDestination(f.NPG, f.Class, f.Src)
	if len(perDst) == 0 {
		t.Fatal("PerDestination empty")
	}
	if _, ok := perDst[f.Src]; ok {
		t.Error("PerDestination contains self region")
	}
	perSrc := ds.PerSource(f.NPG, f.Class, f.Dst)
	if len(perSrc) == 0 {
		t.Fatal("PerSource empty")
	}
}

func TestSourceConcentration(t *testing.T) {
	// Figure 7: for storage services most traffic to a destination comes
	// from few source regions. Verify top-3 sources carry > 50%.
	specs := DefaultOntology(0)
	rs := regions(8)
	ds, err := GenerateDemands(specs, MatrixOptions{
		Regions: rs, TotalRate: 10e12, Days: 1, Step: time.Hour, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate Warmstorage ClassB traffic per source across all dsts.
	perSrcMean := make(map[topology.Region]float64)
	total := 0.0
	for i := range ds.Flows {
		fl := &ds.Flows[i]
		if fl.NPG != "Warmstorage" || fl.Class != contract.ClassB {
			continue
		}
		m := stats.Mean(fl.Series.Values)
		perSrcMean[fl.Src] += m
		total += m
	}
	if total == 0 {
		t.Fatal("no Warmstorage ClassB traffic")
	}
	vals := make([]float64, 0, len(perSrcMean))
	for _, v := range perSrcMean {
		vals = append(vals, v)
	}
	// Top 3 of 8 sources should hold the majority given TopRegionShare=0.67.
	top3 := 0.0
	for i := 0; i < 3; i++ {
		best, bestIdx := -1.0, -1
		for j, v := range vals {
			if v > best {
				best, bestIdx = v, j
			}
		}
		top3 += best
		vals[bestIdx] = -2
	}
	if share := top3 / total; share < 0.5 {
		t.Errorf("top-3 source share = %v, want > 0.5", share)
	}
}

func TestNPGs(t *testing.T) {
	specs := DefaultOntology(2)
	ds, err := GenerateDemands(specs, MatrixOptions{
		Regions: regions(3), TotalRate: 1e12, Days: 1, Step: time.Hour, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	npgs := ds.NPGs()
	if len(npgs) != len(specs) {
		t.Errorf("NPGs = %d, want %d", len(npgs), len(specs))
	}
	for i := 1; i < len(npgs); i++ {
		if npgs[i] <= npgs[i-1] {
			t.Error("NPGs not sorted")
		}
	}
}
