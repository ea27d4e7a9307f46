package forecast

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"entitlement/internal/stats"
	"entitlement/internal/timeseries"
	"entitlement/internal/traffic"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func dailySeries(vals []float64) *timeseries.Series {
	return timeseries.New(t0, 24*time.Hour, vals)
}

func TestFitProphetRecoverLinearTrend(t *testing.T) {
	vals := make([]float64, 120)
	for i := range vals {
		vals[i] = 100 + 2*float64(i)
	}
	m, err := FitProphet(dailySeries(vals), ProphetOptions{WeeklyOrder: 1, Changepoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	// In-sample fit is tight.
	fitted := m.Fitted()
	smape, _ := stats.SMAPE(vals, fitted.Values)
	if smape > 0.02 {
		t.Errorf("in-sample sMAPE = %v", smape)
	}
	// Extrapolation continues the trend.
	fc := m.Forecast(30)
	want := 100 + 2*float64(149)
	if math.Abs(fc.Values[29]-want)/want > 0.1 {
		t.Errorf("forecast day 150 = %v, want ~%v", fc.Values[29], want)
	}
	if !fc.Start.Equal(t0.Add(120 * 24 * time.Hour)) {
		t.Errorf("forecast start = %v", fc.Start)
	}
}

func TestFitProphetWeeklySeasonality(t *testing.T) {
	vals := make([]float64, 140)
	for i := range vals {
		vals[i] = 1000 + 200*math.Sin(2*math.Pi*float64(i)/7)
	}
	m, err := FitProphet(dailySeries(vals), ProphetOptions{WeeklyOrder: 2, Changepoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	fc := m.Forecast(14)
	for i := 0; i < 14; i++ {
		want := 1000 + 200*math.Sin(2*math.Pi*float64(140+i)/7)
		if math.Abs(fc.Values[i]-want) > 60 {
			t.Errorf("day %d forecast = %v, want ~%v", i, fc.Values[i], want)
		}
	}
}

func TestFitProphetChangepoint(t *testing.T) {
	// Slope changes at day 60: flat then growing.
	vals := make([]float64, 150)
	for i := range vals {
		if i < 60 {
			vals[i] = 500
		} else {
			vals[i] = 500 + 5*float64(i-60)
		}
	}
	m, err := FitProphet(dailySeries(vals), ProphetOptions{Changepoints: 10, WeeklyOrder: 1})
	if err != nil {
		t.Fatal(err)
	}
	fitted := m.Fitted()
	smape, _ := stats.SMAPE(vals[1:], fitted.Values[1:])
	if smape > 0.05 {
		t.Errorf("changepoint fit sMAPE = %v", smape)
	}
	// Forecast keeps growing.
	fc := m.Forecast(10)
	if fc.Values[9] <= vals[len(vals)-1] {
		t.Errorf("forecast %v did not continue growth past %v", fc.Values[9], vals[len(vals)-1])
	}
}

func TestFitProphetHoliday(t *testing.T) {
	vals := make([]float64, 120)
	for i := range vals {
		vals[i] = 100
		if i%30 == 10 { // recurring spike days 10, 40, 70, 100
			vals[i] = 180
		}
	}
	m, err := FitProphet(dailySeries(vals), ProphetOptions{
		Changepoints: 2, WeeklyOrder: 1,
		Holidays: []int{10, 40, 70, 100, 130},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Day 130 (future holiday) should forecast high.
	fc := m.Forecast(20)
	hol := fc.Values[10] // index 130-120
	normal := fc.Values[5]
	if hol-normal < 40 {
		t.Errorf("holiday effect = %v, want ~80", hol-normal)
	}
}

func TestFitProphetErrors(t *testing.T) {
	short := dailySeries([]float64{1, 2, 3})
	if _, err := FitProphet(short, ProphetOptions{}); err == nil {
		t.Error("too-short series accepted")
	}
	subDaily := timeseries.New(t0, time.Minute, make([]float64, 100))
	if _, err := FitProphet(subDaily, ProphetOptions{}); err == nil {
		t.Error("sub-hourly series accepted")
	}
}

func TestProphetTrendComponent(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = 50 + float64(i) + 20*math.Sin(2*math.Pi*float64(i)/7)
	}
	m, err := FitProphet(dailySeries(vals), ProphetOptions{WeeklyOrder: 3, Changepoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Trend excludes the seasonal swing: successive trend values move by
	// ~1/day without the ±20 oscillation.
	for i := 10; i < 90; i++ {
		d := m.Trend(i+1) - m.Trend(i)
		if d < 0 || d > 3 {
			t.Fatalf("trend increment at %d = %v", i, d)
		}
	}
}

func TestPinballLoss(t *testing.T) {
	if got := PinballLoss(10, 8, 0.9); math.Abs(got-1.8) > 1e-12 {
		t.Errorf("under-prediction loss = %v, want 1.8", got)
	}
	if got := PinballLoss(8, 10, 0.9); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("over-prediction loss = %v, want 0.2", got)
	}
	if got := PinballLoss(5, 5, 0.5); got != 0 {
		t.Errorf("exact loss = %v", got)
	}
}

func TestGBDTFitsStepFunction(t *testing.T) {
	// y = 10 when x < 0.5 else 50.
	var x [][]float64
	var y []float64
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		v := rng.Float64()
		x = append(x, []float64{v})
		if v < 0.5 {
			y = append(y, 10)
		} else {
			y = append(y, 50)
		}
	}
	g, err := FitGBDT(x, y, GBDTOptions{Trees: 50})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTrees() == 0 {
		t.Fatal("no trees fitted")
	}
	if p := g.Predict([]float64{0.2}); math.Abs(p-10) > 5 {
		t.Errorf("Predict(0.2) = %v, want ~10", p)
	}
	if p := g.Predict([]float64{0.8}); math.Abs(p-50) > 5 {
		t.Errorf("Predict(0.8) = %v, want ~50", p)
	}
}

func TestGBDTQuantileBehavior(t *testing.T) {
	// Noise-free feature with asymmetric-noise target: the 0.9-quantile
	// model must predict above the 0.5-quantile model.
	rng := rand.New(rand.NewSource(2))
	var x [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		x = append(x, []float64{1})
		y = append(y, 100+rng.Float64()*50) // uniform noise [0,50]
	}
	p50, err := FitGBDT(x, y, GBDTOptions{Trees: 30, Quantile: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	p90, err := FitGBDT(x, y, GBDTOptions{Trees: 30, Quantile: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	lo := p50.Predict([]float64{1})
	hi := p90.Predict([]float64{1})
	if hi <= lo {
		t.Errorf("p90 prediction %v not above p50 %v", hi, lo)
	}
	if math.Abs(lo-125) > 10 {
		t.Errorf("p50 prediction = %v, want ~125", lo)
	}
	if math.Abs(hi-145) > 10 {
		t.Errorf("p90 prediction = %v, want ~145", hi)
	}
}

func TestGBDTValidation(t *testing.T) {
	if _, err := FitGBDT(nil, nil, GBDTOptions{}); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := FitGBDT([][]float64{{1}}, []float64{1, 2}, GBDTOptions{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FitGBDT([][]float64{{1}, {1, 2}}, []float64{1, 2}, GBDTOptions{}); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := FitGBDT([][]float64{{1}, {2}}, []float64{1, 2}, GBDTOptions{Quantile: 1.5}); err == nil {
		t.Error("quantile out of range accepted")
	}
}

func TestGBDTPredictWidthPanics(t *testing.T) {
	g, err := FitGBDT([][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}}, []float64{1, 2, 3, 4, 5, 6, 7, 8}, GBDTOptions{Trees: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong width did not panic")
		}
	}()
	g.Predict([]float64{1, 2})
}

func TestInorganicDataset(t *testing.T) {
	traffic := []float64{10, 20, 30, 40, 50, 60}
	regs := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}}
	x, y, err := InorganicDataset(traffic, regs)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 3 || len(y) != 3 {
		t.Fatalf("samples = %d, want 3", len(x))
	}
	// First sample predicts month 3 (40) from months 2,1,0.
	if y[0] != 40 {
		t.Errorf("y[0] = %v, want 40", y[0])
	}
	want := []float64{30, 20, 10, 3, 2, 1}
	for i, v := range want {
		if x[0][i] != v {
			t.Errorf("x[0][%d] = %v, want %v", i, x[0][i], v)
		}
	}
	if _, _, err := InorganicDataset([]float64{1, 2}, [][]float64{{1}, {2}}); err == nil {
		t.Error("short history accepted")
	}
	if _, _, err := InorganicDataset([]float64{1, 2, 3, 4}, [][]float64{{1}}); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestGBDTForecastMonthsRollsForward(t *testing.T) {
	// Traffic follows its regressor (server count): next month ≈ 10×servers.
	months := 24
	traffic := make([]float64, months)
	regs := make([][]float64, months)
	for i := range traffic {
		servers := float64(5 + i)
		regs[i] = []float64{servers}
		traffic[i] = 10 * servers
	}
	x, y, err := InorganicDataset(traffic, regs)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FitGBDT(x, y, GBDTOptions{Trees: 80, Tree: TreeOptions{MaxDepth: 3, MinLeaf: 2}})
	if err != nil {
		t.Fatal(err)
	}
	future := [][]float64{{29}, {30}, {31}}
	out, err := g.ForecastMonths(traffic, regs, future)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("forecast months = %d", len(out))
	}
	for i, v := range out {
		if v <= 0 {
			t.Errorf("month %d forecast %v", i, v)
		}
	}
	// Forecasts stay in a sane neighbourhood of the trend (tree models
	// cannot extrapolate beyond the max leaf, so allow the top of range).
	if out[0] < traffic[months-4] {
		t.Errorf("first forecast %v below recent history %v", out[0], traffic[months-4])
	}
}

func TestDailySLIKinds(t *testing.T) {
	raw := traffic.Diurnal(traffic.DiurnalOptions{
		Base: 100, Amplitude: 50, Noise: 0, PeakHour: 12,
		Days: 4, Step: time.Hour, Seed: 1,
	})
	for _, kind := range []SLIKind{SLIMaxAvg6h, SLIDailyP99, SLIDailyMean} {
		s, err := DailySLI(raw, kind)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if s.Len() != 4 {
			t.Errorf("%v: days = %d", kind, s.Len())
		}
	}
	// p99 >= max-avg-6h >= mean for a diurnal pattern.
	p99, _ := DailySLI(raw, SLIDailyP99)
	avg6, _ := DailySLI(raw, SLIMaxAvg6h)
	mean, _ := DailySLI(raw, SLIDailyMean)
	for i := 0; i < 4; i++ {
		if !(p99.Values[i] >= avg6.Values[i]-1e-9 && avg6.Values[i] >= mean.Values[i]-1e-9) {
			t.Errorf("day %d ordering violated: p99=%v avg6=%v mean=%v",
				i, p99.Values[i], avg6.Values[i], mean.Values[i])
		}
	}
	if _, err := DailySLI(raw, SLIKind(99)); err == nil {
		t.Error("unknown kind accepted")
	}
	if SLIMaxAvg6h.String() != "max-avg-6h" || SLIDailyP99.String() != "daily-p99" || SLIDailyMean.String() != "daily-mean" {
		t.Error("SLIKind strings wrong")
	}
}

func TestForecastQuarter(t *testing.T) {
	// 180 days of growing daily SLI.
	vals := make([]float64, 180)
	for i := range vals {
		vals[i] = 1000 + 3*float64(i)
	}
	res, err := ForecastQuarter(dailySeries(vals), ProphetOptions{Changepoints: 4, WeeklyOrder: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Daily.Len() != QuarterDays {
		t.Errorf("daily forecast = %d days", res.Daily.Len())
	}
	// Monthly demands grow month over month.
	if !(res.Monthly[0] < res.Monthly[1] && res.Monthly[1] < res.Monthly[2]) {
		t.Errorf("monthly not increasing: %v", res.Monthly)
	}
	if res.Quarter != res.Monthly[2] {
		t.Errorf("quarter = %v, want max month %v", res.Quarter, res.Monthly[2])
	}
	// Quarter demand above last observed value for a growing service.
	if res.Quarter <= vals[len(vals)-1] {
		t.Errorf("quarter %v not above last actual %v", res.Quarter, vals[len(vals)-1])
	}
	// Non-daily input rejected.
	hourly := timeseries.New(t0, time.Hour, make([]float64, 100))
	if _, err := ForecastQuarter(hourly, ProphetOptions{}); err == nil {
		t.Error("hourly series accepted")
	}
}

func TestAdjustInorganic(t *testing.T) {
	r := &Result{Monthly: [3]float64{100, 110, 120}, Quarter: 120}
	// Planned region turn-up makes month 2 jump.
	r.AdjustInorganic([]float64{90, 200, 100})
	if r.Monthly[0] != 100 {
		t.Errorf("month 0 lowered to %v", r.Monthly[0])
	}
	if r.Monthly[1] != 200 {
		t.Errorf("month 1 = %v, want 200", r.Monthly[1])
	}
	if r.Quarter != 200 {
		t.Errorf("quarter = %v, want 200", r.Quarter)
	}
}

func TestEvaluateAccuracy(t *testing.T) {
	raw := traffic.TrendSeasonal(traffic.GrowthOptions{
		Base: 10e9, DailyGrowth: 20e6, WeeklyAmp: 0.5e9, DiurnalAmp: 2e9,
		Noise: 0.03, Days: 150, Step: time.Hour, Seed: 4,
	})
	acc, err := EvaluateAccuracy(raw, 30, ProphetOptions{Changepoints: 4, WeeklyOrder: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Majority of sMAPE below 0.4 per §7.1 — this clean synthetic series
	// should score well under that.
	for name, v := range map[string]float64{"p50": acc.P50, "p75": acc.P75, "p90": acc.P90} {
		if v < 0 || v > 0.4 {
			t.Errorf("%s sMAPE = %v, want [0, 0.4]", name, v)
		}
	}
}

func TestEvaluateAccuracyErrors(t *testing.T) {
	raw := traffic.Diurnal(traffic.DiurnalOptions{Base: 1, Amplitude: 0, Days: 40, Step: time.Hour, Seed: 1})
	if _, err := EvaluateAccuracy(raw, 0, ProphetOptions{}); err == nil {
		t.Error("zero testDays accepted")
	}
	if _, err := EvaluateAccuracy(raw, 400, ProphetOptions{}); err == nil {
		t.Error("testDays beyond history accepted")
	}
}

func TestBacktest(t *testing.T) {
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = 1000 + 3*float64(i) + 50*math.Sin(2*math.Pi*float64(i)/7)
	}
	scores, err := Backtest(dailySeries(vals), 4, 14, ProphetOptions{Changepoints: 3, WeeklyOrder: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 4 {
		t.Fatalf("folds = %d", len(scores))
	}
	for i, s := range scores {
		if s < 0 || s > 0.2 {
			t.Errorf("fold %d sMAPE = %v on a clean series", i, s)
		}
	}
}

func TestBacktestValidation(t *testing.T) {
	s := dailySeries(make([]float64, 50))
	if _, err := Backtest(s, 0, 10, ProphetOptions{}); err == nil {
		t.Error("zero folds accepted")
	}
	if _, err := Backtest(s, 10, 30, ProphetOptions{}); err == nil {
		t.Error("oversized folds accepted")
	}
}

func TestClampGrowth(t *testing.T) {
	r := &Result{Monthly: [3]float64{50, 400, 90}, Quarter: 400}
	// Last actual 100; owner expects between 0% and 10% monthly growth.
	r.ClampGrowth(100, 0, 0.10)
	// Month 1: [100, 110] — 50 clamped up to 100.
	if r.Monthly[0] != 100 {
		t.Errorf("month 1 = %v, want 100", r.Monthly[0])
	}
	// Month 2: [100, 121] — 400 clamped down to 121.
	if math.Abs(r.Monthly[1]-121) > 1e-9 {
		t.Errorf("month 2 = %v, want 121", r.Monthly[1])
	}
	// Month 3: [100, 133.1] — 90 clamped up to 100.
	if r.Monthly[2] != 100 {
		t.Errorf("month 3 = %v, want 100", r.Monthly[2])
	}
	if math.Abs(r.Quarter-121) > 1e-9 {
		t.Errorf("quarter = %v, want 121", r.Quarter)
	}
}

func TestClampGrowthNoOpOnBadInputs(t *testing.T) {
	r := &Result{Monthly: [3]float64{1, 2, 3}, Quarter: 3}
	r.ClampGrowth(0, 0, 1) // zero lastActual: untouched
	if r.Monthly != [3]float64{1, 2, 3} {
		t.Errorf("clamp with zero actual changed result: %v", r.Monthly)
	}
	r.ClampGrowth(10, 0.5, 0.1) // min > max: untouched
	if r.Monthly != [3]float64{1, 2, 3} {
		t.Errorf("inverted bounds changed result: %v", r.Monthly)
	}
}
