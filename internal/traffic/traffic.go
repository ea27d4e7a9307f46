// Package traffic generates the synthetic production traffic the reproduction
// runs on, substituting for Meta's proprietary traces. It provides:
//
//   - pattern generators matching §2.1's observations: smooth diurnal
//     (Warmstorage), periodic rack-rotation spikes (Coldstorage), and
//     trend + weekly seasonality + holidays for forecasting workloads;
//   - incident injectors reproducing §2.2's misbehaving-service events
//     (a spike forming within three minutes, 50% above predicted volume);
//   - a service ontology with a handful of dominant services and a long
//     tail (Figures 1 and 2), including source-region concentration
//     (Figure 7: 67% of traffic from 3 regions);
//   - a demand-matrix generator producing per-(NPG, class, src, dst) time
//     series over a topology's regions.
package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/timeseries"
	"entitlement/internal/topology"
)

// DefaultStart anchors generated series; any fixed origin works since the
// pipeline only consumes relative structure.
var DefaultStart = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// DiurnalOptions shapes a smooth time-of-day pattern (Warmstorage-like).
type DiurnalOptions struct {
	Base      float64       // mean rate, bits/s
	Amplitude float64       // peak-to-mean swing, bits/s
	Noise     float64       // multiplicative noise stddev (e.g. 0.05)
	PeakHour  float64       // hour of day of the peak (0-24)
	Days      int           // series length in days
	Step      time.Duration // sampling interval
	Seed      int64
}

// Diurnal generates a smooth sinusoidal time-of-day series — the
// "consequence of the time-of-day effect" pattern of Figure 3 (bottom).
func Diurnal(opts DiurnalOptions) *timeseries.Series {
	n := samplesFor(opts.Days, opts.Step)
	rng := rand.New(rand.NewSource(opts.Seed))
	vals := make([]float64, n)
	for i := range vals {
		at := time.Duration(i) * opts.Step
		hour := at.Hours() - 24*math.Floor(at.Hours()/24)
		phase := 2 * math.Pi * (hour - opts.PeakHour) / 24
		v := opts.Base + opts.Amplitude*math.Cos(phase)
		v *= 1 + opts.Noise*rng.NormFloat64()
		if v < 0 {
			v = 0
		}
		vals[i] = v
	}
	return timeseries.New(DefaultStart, opts.Step, vals)
}

// SpikeTrainOptions shapes a periodic-spike pattern (Coldstorage-like:
// "periodically turning on a rack of storage servers ... rotating across
// all racks").
type SpikeTrainOptions struct {
	Base        float64       // idle rate between spikes, bits/s
	SpikeHeight float64       // additional rate during a spike, bits/s
	Period      time.Duration // spike repetition interval
	SpikeWidth  time.Duration // spike duration
	Noise       float64       // multiplicative noise stddev
	Days        int
	Step        time.Duration
	Seed        int64
}

// SpikeTrain generates the regular-spike pattern of Figure 3 (top).
func SpikeTrain(opts SpikeTrainOptions) *timeseries.Series {
	n := samplesFor(opts.Days, opts.Step)
	rng := rand.New(rand.NewSource(opts.Seed))
	vals := make([]float64, n)
	for i := range vals {
		at := time.Duration(i) * opts.Step
		inSpike := at%opts.Period < opts.SpikeWidth
		v := opts.Base
		if inSpike {
			v += opts.SpikeHeight
		}
		v *= 1 + opts.Noise*rng.NormFloat64()
		if v < 0 {
			v = 0
		}
		vals[i] = v
	}
	return timeseries.New(DefaultStart, opts.Step, vals)
}

// GrowthOptions shapes a forecastable series: linear trend, weekly
// seasonality, holiday bumps, and idiosyncratic noise — the components the
// Prophet-lite model decomposes (§4.1).
type GrowthOptions struct {
	Base        float64 // starting level, bits/s
	DailyGrowth float64 // additive growth per day, bits/s
	WeeklyAmp   float64 // weekly seasonal amplitude, bits/s
	DiurnalAmp  float64 // within-day amplitude, bits/s
	HolidayBump float64 // additional rate on holidays, bits/s
	Holidays    []int   // day indexes that are holidays
	Noise       float64 // multiplicative noise stddev
	Days        int
	Step        time.Duration
	Seed        int64
}

// TrendSeasonal generates a trend+seasonality+holiday series.
func TrendSeasonal(opts GrowthOptions) *timeseries.Series {
	n := samplesFor(opts.Days, opts.Step)
	rng := rand.New(rand.NewSource(opts.Seed))
	holiday := make(map[int]bool, len(opts.Holidays))
	for _, d := range opts.Holidays {
		holiday[d] = true
	}
	vals := make([]float64, n)
	for i := range vals {
		at := time.Duration(i) * opts.Step
		day := at.Hours() / 24
		hour := at.Hours() - 24*math.Floor(day)
		v := opts.Base + opts.DailyGrowth*day
		v += opts.WeeklyAmp * math.Sin(2*math.Pi*day/7)
		v += opts.DiurnalAmp * math.Cos(2*math.Pi*(hour-18)/24)
		if holiday[int(day)] {
			v += opts.HolidayBump
		}
		v *= 1 + opts.Noise*rng.NormFloat64()
		if v < 0 {
			v = 0
		}
		vals[i] = v
	}
	return timeseries.New(DefaultStart, opts.Step, vals)
}

// Incident describes an injected misbehaving-service event, e.g. §2.2's
// video-client bug: "this spike was formed within three minutes, and the
// peak volume was 50% more than predicted volume".
type Incident struct {
	At        time.Duration // offset from series start
	Ramp      time.Duration // time for the spike to fully form
	Duration  time.Duration // how long the elevated level lasts (excludes ramp)
	Magnitude float64       // fractional increase at peak (0.5 = +50%)
}

// InjectIncident returns a copy of s with the incident's multiplicative
// spike applied: rate ramps linearly to (1+Magnitude)× over Ramp, stays
// there for Duration, then drops back instantly (bug rollback).
func InjectIncident(s *timeseries.Series, inc Incident) *timeseries.Series {
	out := s.Clone()
	for i := range out.Values {
		at := time.Duration(i) * s.Step
		switch {
		case at < inc.At:
		case at < inc.At+inc.Ramp:
			frac := float64(at-inc.At) / float64(inc.Ramp)
			out.Values[i] *= 1 + inc.Magnitude*frac
		case at < inc.At+inc.Ramp+inc.Duration:
			out.Values[i] *= 1 + inc.Magnitude
		}
	}
	return out
}

func samplesFor(days int, step time.Duration) int {
	if days <= 0 || step <= 0 {
		panic(fmt.Sprintf("trace: invalid horizon days=%d step=%v", days, step))
	}
	return int(time.Duration(days) * 24 * time.Hour / step)
}

// PatternKind selects a service's traffic shape.
type PatternKind int

// Known patterns.
const (
	PatternDiurnal PatternKind = iota
	PatternSpikes
	PatternGrowth
)

// ServiceSpec describes one service in the ontology.
type ServiceSpec struct {
	Name contract.NPG
	// VolumeShare is the service's fraction of total WAN demand.
	VolumeShare float64
	// ClassMix maps QoS class → fraction of this service's volume. The
	// fractions should sum to 1; most of a service's traffic sits in one
	// class with a sliver elsewhere (§2.1: "traffic from one service can
	// belong to more than one traffic class").
	ClassMix map[contract.Class]float64
	Pattern  PatternKind
	// TopRegionShare of the service's traffic originates from TopRegions
	// source regions (Figure 7: 67% from 3 regions for storage).
	TopRegionShare float64
	TopRegions     int
	// HighTouch marks the <10 dominant services that get individual
	// entitlements (§4.3); the rest aggregate into one low-touch service.
	HighTouch bool
}

// LowTouchNPG is the aggregate NPG the long tail is grouped into.
const LowTouchNPG contract.NPG = "low-touch"

// DefaultOntology builds the paper's service mix: the named dominant
// services (mostly storage, §2.1) plus tailServices long-tail services whose
// volume shares follow a Zipf-like decay. Shares are normalized to sum to 1.
func DefaultOntology(tailServices int) []ServiceSpec {
	mix := func(major contract.Class, majorFrac float64, minor contract.Class) map[contract.Class]float64 {
		return map[contract.Class]float64{major: majorFrac, minor: 1 - majorFrac}
	}
	specs := []ServiceSpec{
		{Name: "Logging", VolumeShare: 0.22, Pattern: PatternGrowth, HighTouch: true,
			ClassMix: mix(contract.ClassB, 0.9, contract.ClassA), TopRegionShare: 0.6, TopRegions: 3},
		{Name: "Warmstorage", VolumeShare: 0.18, Pattern: PatternDiurnal, HighTouch: true,
			ClassMix: mix(contract.ClassB, 0.92, contract.ClassA), TopRegionShare: 0.67, TopRegions: 3},
		{Name: "Coldstorage", VolumeShare: 0.14, Pattern: PatternSpikes, HighTouch: true,
			ClassMix: mix(contract.C4Low, 0.95, contract.ClassB), TopRegionShare: 0.67, TopRegions: 3},
		{Name: "Datawarehouse", VolumeShare: 0.12, Pattern: PatternDiurnal, HighTouch: true,
			ClassMix: mix(contract.ClassB, 0.85, contract.ClassA), TopRegionShare: 0.55, TopRegions: 3},
		{Name: "MultiFeed", VolumeShare: 0.08, Pattern: PatternDiurnal, HighTouch: true,
			ClassMix: mix(contract.ClassA, 0.8, contract.ClassB), TopRegionShare: 0.5, TopRegions: 4},
		{Name: "Everstore", VolumeShare: 0.07, Pattern: PatternDiurnal, HighTouch: true,
			ClassMix: mix(contract.ClassB, 0.75, contract.ClassA), TopRegionShare: 0.6, TopRegions: 3},
		{Name: "Ads", VolumeShare: 0.06, Pattern: PatternDiurnal, HighTouch: true,
			ClassMix: mix(contract.ClassA, 0.9, contract.ClassB), TopRegionShare: 0.5, TopRegions: 4},
	}
	// Long tail: Zipf-decaying shares of the remaining volume.
	remaining := 1.0
	for _, s := range specs {
		remaining -= s.VolumeShare
	}
	if tailServices > 0 {
		weights := make([]float64, tailServices)
		total := 0.0
		for i := range weights {
			weights[i] = 1 / math.Pow(float64(i+1), 1.1)
			total += weights[i]
		}
		for i := range weights {
			class := contract.ClassA
			if i%2 == 1 {
				class = contract.ClassB
			}
			minor := contract.ClassB
			if class == contract.ClassB {
				minor = contract.ClassA
			}
			specs = append(specs, ServiceSpec{
				Name:           contract.NPG(fmt.Sprintf("tail-%03d", i)),
				VolumeShare:    remaining * weights[i] / total,
				Pattern:        PatternDiurnal,
				ClassMix:       mix(class, 0.97, minor),
				TopRegionShare: 0.5, TopRegions: 3,
			})
		}
	}
	return specs
}

// ServiceShare is one service's fraction of a QoS class's traffic.
type ServiceShare struct {
	Name  contract.NPG
	Share float64
}

// ClassDistribution returns each service's share of the given class's total
// volume, sorted descending — the data behind Figures 1 and 2.
func ClassDistribution(specs []ServiceSpec, class contract.Class) []ServiceShare {
	total := 0.0
	shares := make([]ServiceShare, 0, len(specs))
	for _, s := range specs {
		v := s.VolumeShare * s.ClassMix[class]
		if v <= 0 {
			continue
		}
		shares = append(shares, ServiceShare{Name: s.Name, Share: v})
		total += v
	}
	if total == 0 {
		return nil
	}
	for i := range shares {
		shares[i].Share /= total
	}
	sort.Slice(shares, func(i, j int) bool {
		if shares[i].Share != shares[j].Share {
			return shares[i].Share > shares[j].Share
		}
		return shares[i].Name < shares[j].Name
	})
	return shares
}

// FlowSeries is the demand time series of one (NPG, class, src, dst) flow
// aggregate.
type FlowSeries struct {
	NPG    contract.NPG
	Class  contract.Class
	Src    topology.Region
	Dst    topology.Region
	Series *timeseries.Series
}

// DemandSet is a generated traffic matrix over time.
type DemandSet struct {
	Flows []FlowSeries
	Step  time.Duration
	Len   int
}

// MatrixOptions configures demand-matrix generation.
type MatrixOptions struct {
	Regions   []topology.Region
	TotalRate float64 // aggregate WAN demand at the mean, bits/s
	Days      int
	Step      time.Duration
	Seed      int64
}

// GenerateDemands synthesizes per-(NPG, class, src, dst) series for every
// service in specs over the given regions. Source weights follow each
// service's TopRegionShare concentration; destination weights are a fresh
// concentration draw per source so hoses have realistic per-destination
// structure for segmentation.
func GenerateDemands(specs []ServiceSpec, opts MatrixOptions) (*DemandSet, error) {
	if len(opts.Regions) < 2 {
		return nil, fmt.Errorf("trace: need >= 2 regions, got %d", len(opts.Regions))
	}
	if opts.TotalRate <= 0 || opts.Days <= 0 || opts.Step <= 0 {
		return nil, fmt.Errorf("trace: invalid matrix options %+v", opts)
	}
	ds := &DemandSet{Step: opts.Step, Len: samplesFor(opts.Days, opts.Step)}
	rng := rand.New(rand.NewSource(opts.Seed))
	for si, spec := range specs {
		srcW := concentratedWeights(rng, len(opts.Regions), spec.TopRegionShare, spec.TopRegions)
		for _, cm := range orderedClassMix(spec.ClassMix) {
			classRate := opts.TotalRate * spec.VolumeShare * cm.frac
			for srcIdx, src := range opts.Regions {
				if srcW[srcIdx] <= 0 {
					continue
				}
				dstW := concentratedWeights(rng, len(opts.Regions), spec.TopRegionShare, spec.TopRegions)
				dstW[srcIdx] = 0 // no self traffic
				norm := 0.0
				for _, w := range dstW {
					norm += w
				}
				if norm == 0 {
					continue
				}
				for dstIdx, dst := range opts.Regions {
					if dstIdx == srcIdx || dstW[dstIdx] <= 0 {
						continue
					}
					rate := classRate * srcW[srcIdx] * dstW[dstIdx] / norm
					if rate <= 0 {
						continue
					}
					seed := opts.Seed + int64(si)*1_000_003 + int64(cm.class)*10_007 + int64(srcIdx)*101 + int64(dstIdx)
					ds.Flows = append(ds.Flows, FlowSeries{
						NPG: spec.Name, Class: cm.class, Src: src, Dst: dst,
						Series: patternSeries(spec.Pattern, rate, opts.Days, opts.Step, seed),
					})
				}
			}
		}
	}
	return ds, nil
}

type classFrac struct {
	class contract.Class
	frac  float64
}

// orderedClassMix returns the class mix in deterministic class order so
// generation is reproducible (map iteration order is randomized in Go).
func orderedClassMix(mix map[contract.Class]float64) []classFrac {
	out := make([]classFrac, 0, len(mix))
	for c, f := range mix {
		if f > 0 {
			out = append(out, classFrac{c, f})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].class < out[j].class })
	return out
}

// concentratedWeights draws per-region weights where topShare of the mass
// lands on topK randomly chosen regions and the rest spreads uniformly.
func concentratedWeights(rng *rand.Rand, n int, topShare float64, topK int) []float64 {
	if topK <= 0 || topK > n {
		topK = n
	}
	w := make([]float64, n)
	perm := rng.Perm(n)
	for i, p := range perm {
		if i < topK {
			w[p] = topShare / float64(topK)
		} else if n > topK {
			w[p] = (1 - topShare) / float64(n-topK)
		}
	}
	return w
}

func patternSeries(kind PatternKind, meanRate float64, days int, step time.Duration, seed int64) *timeseries.Series {
	switch kind {
	case PatternSpikes:
		// Duty cycle 25%: base + height/4 == mean.
		return SpikeTrain(SpikeTrainOptions{
			Base: meanRate * 0.4, SpikeHeight: meanRate * 2.4,
			Period: 4 * time.Hour, SpikeWidth: time.Hour,
			Noise: 0.05, Days: days, Step: step, Seed: seed,
		})
	case PatternGrowth:
		return TrendSeasonal(GrowthOptions{
			Base: meanRate * 0.9, DailyGrowth: meanRate * 0.2 / 90,
			WeeklyAmp: meanRate * 0.05, DiurnalAmp: meanRate * 0.2,
			Noise: 0.05, Days: days, Step: step, Seed: seed,
		})
	default:
		return Diurnal(DiurnalOptions{
			Base: meanRate, Amplitude: meanRate * 0.3, Noise: 0.05,
			PeakHour: 20, Days: days, Step: step, Seed: seed,
		})
	}
}

// FlowFilter selects flows; zero-valued fields match everything.
type FlowFilter struct {
	NPG   contract.NPG
	Class contract.Class
	// HasClass must be set for Class to participate in matching, since
	// C1Low is the zero value.
	HasClass bool
	Src, Dst topology.Region
}

func (f FlowFilter) matches(fs *FlowSeries) bool {
	if f.NPG != "" && fs.NPG != f.NPG {
		return false
	}
	if f.HasClass && fs.Class != f.Class {
		return false
	}
	if f.Src != "" && fs.Src != f.Src {
		return false
	}
	if f.Dst != "" && fs.Dst != f.Dst {
		return false
	}
	return true
}

// Aggregate sums the series of every flow matching the filter. It returns
// nil when nothing matches.
func (ds *DemandSet) Aggregate(f FlowFilter) *timeseries.Series {
	var acc *timeseries.Series
	for i := range ds.Flows {
		fs := &ds.Flows[i]
		if !f.matches(fs) {
			continue
		}
		if acc == nil {
			acc = fs.Series.Clone()
			continue
		}
		for j, v := range fs.Series.Values {
			acc.Values[j] += v
		}
	}
	return acc
}

// PerDestination returns F(dst, t): the per-destination egress series of one
// (NPG, class, src) hose — the input to the segmentation algorithm (§4.2).
func (ds *DemandSet) PerDestination(npg contract.NPG, class contract.Class, src topology.Region) map[topology.Region]*timeseries.Series {
	out := make(map[topology.Region]*timeseries.Series)
	for i := range ds.Flows {
		fs := &ds.Flows[i]
		if fs.NPG != npg || fs.Class != class || fs.Src != src {
			continue
		}
		if cur, ok := out[fs.Dst]; ok {
			for j, v := range fs.Series.Values {
				cur.Values[j] += v
			}
		} else {
			out[fs.Dst] = fs.Series.Clone()
		}
	}
	return out
}

// PerSource returns the per-source ingress series toward one destination —
// the data behind Figure 7.
func (ds *DemandSet) PerSource(npg contract.NPG, class contract.Class, dst topology.Region) map[topology.Region]*timeseries.Series {
	out := make(map[topology.Region]*timeseries.Series)
	for i := range ds.Flows {
		fs := &ds.Flows[i]
		if fs.NPG != npg || fs.Class != class || fs.Dst != dst {
			continue
		}
		if cur, ok := out[fs.Src]; ok {
			for j, v := range fs.Series.Values {
				cur.Values[j] += v
			}
		} else {
			out[fs.Src] = fs.Series.Clone()
		}
	}
	return out
}

// NPGs returns the distinct NPGs present in the demand set, sorted.
func (ds *DemandSet) NPGs() []contract.NPG {
	seen := make(map[contract.NPG]bool)
	for i := range ds.Flows {
		seen[ds.Flows[i].NPG] = true
	}
	out := make([]contract.NPG, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
