package stats

import (
	"math"
	"strings"
	"testing"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 {
		t.Fatal("zero value not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
}

func TestWelfordSingleObservation(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.N() != 1 || w.Mean() != 3.5 {
		t.Fatalf("N = %d, Mean = %v after one 3.5", w.N(), w.Mean())
	}
}

func TestHistogramNegativeAndSmall(t *testing.T) {
	var h Histogram
	if h.N() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Add(-5) // clamps to 0
	h.Add(0.25)
	h.Add(0.75)
	if h.N() != 3 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Mean() != 1.0/3 || h.Max() != 0.75 {
		t.Fatalf("mean %v max %v: the negative value should count as 0", h.Mean(), h.Max())
	}
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i))
	}
	if want := 500501.0 / 1003; h.N() != 1003 || h.Mean() != want || h.Max() != 1000 {
		t.Fatalf("n %d mean %v (want the exact sum/n %v) max %v", h.N(), h.Mean(), want, h.Max())
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Inc()
	c.Addn(40)
	if c.Value() != 42 {
		t.Fatalf("Value = %d", c.Value())
	}
}

func TestTimeWeighted(t *testing.T) {
	var tw TimeWeighted
	tw.Update(0, 0)
	tw.Update(10, 4) // value 0 for 10 units
	tw.Update(20, 2) // value 4 for 10 units
	tw.Update(40, 2) // value 2 for 20 units
	// area = 0*10 + 4*10 + 2*20 = 80 over 40 units => 2.0
	if m := tw.Mean(); math.Abs(m-2.0) > 1e-12 {
		t.Fatalf("Mean = %v, want 2", m)
	}
	if tw.Max() != 4 {
		t.Fatalf("Max = %v", tw.Max())
	}
	if tw.Current() != 2 {
		t.Fatalf("Current = %v", tw.Current())
	}
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	var tw TimeWeighted
	tw.Update(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards time did not panic")
		}
	}()
	tw.Update(5, 2)
}

func TestTimeWeightedBeforeUpdates(t *testing.T) {
	var tw TimeWeighted
	if tw.Mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
	tw.Update(5, 7)
	if tw.Mean() != 7 {
		t.Fatal("single update mean should be current value")
	}
}

func TestSeriesMonotone(t *testing.T) {
	up := &Series{Label: "up"}
	for i := 0; i < 5; i++ {
		up.Add(float64(i), float64(i*i))
	}
	if !up.Monotone(1, 0) {
		t.Fatal("increasing series not detected")
	}
	if up.Monotone(-1, 0) {
		t.Fatal("increasing series claimed decreasing")
	}
	noisy := &Series{}
	noisy.Add(0, 100)
	noisy.Add(1, 99.5) // 0.5% dip
	noisy.Add(2, 110)
	if noisy.Monotone(1, 0) {
		t.Fatal("dip should break strict monotonicity")
	}
	if !noisy.Monotone(1, 0.01) {
		t.Fatal("1% tolerance should absorb the dip")
	}
}

func TestCrossover(t *testing.T) {
	a, b := &Series{}, &Series{}
	for i := 0; i <= 4; i++ {
		x := float64(i)
		a.Add(x, 10-2*x) // 10, 8, 6, 4, 2
		b.Add(x, 2+2*x)  // 2, 4, 6, 8, 10
	}
	x, ok := Crossover(a, b)
	if !ok {
		t.Fatal("crossover not found")
	}
	if math.Abs(x-2.0) > 1e-9 {
		t.Fatalf("crossover at %v, want 2", x)
	}
	// No crossover case.
	c := &Series{}
	for i := 0; i <= 4; i++ {
		c.Add(float64(i), 100)
	}
	if _, ok := Crossover(a, c); ok {
		t.Fatal("a stays below c; no crossover expected")
	}
	// Mismatched lengths.
	d := &Series{}
	d.Add(0, 0)
	if _, ok := Crossover(a, d); ok {
		t.Fatal("mismatched series should not cross")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("T1: demo", "N", "eta_LAMS", "eta_HDLC")
	tb.AddRowf(10, 0.123456, 0.1)
	tb.AddRowf(100, 0.9, 0.5)
	out := tb.String()
	if !strings.Contains(out, "T1: demo") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "eta_LAMS") {
		t.Fatal("missing header")
	}
	if !strings.Contains(out, "0.1235") {
		t.Fatalf("float formatting wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("1") // short row pads
	tb.AddRow("1", "2", "3", "4")
	out := tb.String()
	if strings.Contains(out, "4") {
		t.Fatal("extra cell should be dropped")
	}
}

func TestChartRender(t *testing.T) {
	up := &Series{Label: "rising"}
	down := &Series{Label: "falling"}
	for i := 0; i <= 10; i++ {
		up.Add(float64(i), float64(i))
		down.Add(float64(i), float64(10-i))
	}
	out := Chart{Title: "demo", Series: []*Series{up, down}}.Render()
	for _, want := range []string{"demo", "rising", "falling", "*", "o", "10", "0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 16 {
		t.Fatalf("chart too short: %d lines", len(lines))
	}
}

func TestChartLogX(t *testing.T) {
	s := &Series{Label: "ber"}
	for _, x := range []float64{1e-6, 1e-5, 1e-4, 1e-3} {
		s.Add(x, x*1e3)
	}
	out := Chart{LogX: true, Series: []*Series{s}, Width: 30, Height: 8}.Render()
	if !strings.Contains(out, "1e-06") && !strings.Contains(out, "1e-6") {
		t.Fatalf("log axis label missing:\n%s", out)
	}
	// Log spacing: the four points should land at roughly even columns;
	// with linear scaling three of them would collapse onto column 0.
	glyphCols := map[int]bool{}
	for _, line := range strings.Split(out, "\n") {
		if i := strings.IndexByte(line, '*'); i >= 0 {
			glyphCols[i] = true
		}
	}
	if len(glyphCols) < 4 {
		t.Fatalf("points collapsed on the x axis: %v\n%s", glyphCols, out)
	}
}

func TestChartEmptyAndFlat(t *testing.T) {
	if out := (Chart{Title: "t"}).Render(); !strings.Contains(out, "no data") {
		t.Fatal("empty chart")
	}
	flat := &Series{Label: "flat"}
	flat.Add(1, 5)
	flat.Add(2, 5)
	if out := (Chart{Series: []*Series{flat}}).Render(); out == "" {
		t.Fatal("flat series render")
	}
}
