// Package stats provides the measurement primitives the experiment harness
// uses to reproduce the paper's tables and figures: a streaming mean
// (Welford), duration/value histograms, time-weighted averages for queue
// lengths, and labelled series for figure-style sweeps.
//
// Everything is plain data with deterministic behaviour; nothing here locks
// or touches the wall clock, so collectors can live inside the single-
// threaded simulation without ceremony.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Welford accumulates a streaming mean without storing samples, by
// Welford's recurrence. The zero value is an empty accumulator.
type Welford struct {
	n    uint64
	mean float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	w.mean += (x - w.mean) / float64(w.n)
}

// N returns the number of observations.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the sample mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Histogram accumulates the count, exact mean and exact maximum of
// non-negative float64 observations — everything a report reads of the
// sender-buffer holding times. It keeps no buckets: nothing ever read a
// quantile off them, and filling them cost a math.Log2 on every release.
// The bucketed, registry-backed histogram is metrics.Histogram.
type Histogram struct {
	n        uint64
	sum, max float64
}

// Add records one observation; negative values clamp to zero.
func (h *Histogram) Add(x float64) {
	if x < 0 {
		x = 0
	}
	h.n++
	h.sum += x
	if x > h.max {
		h.max = x
	}
}

// N returns the number of observations.
func (h *Histogram) N() uint64 { return h.n }

// Mean returns the exact mean of the observations.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Max returns the exact maximum observation.
func (h *Histogram) Max() float64 { return h.max }

// Counter is a named monotonically increasing count.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Addn adds n.
func (c *Counter) Addn(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// TimeWeighted tracks the time-average of a step function, e.g. queue
// length or buffer occupancy over virtual time. Update must be called with
// non-decreasing timestamps (in nanoseconds or any consistent unit).
type TimeWeighted struct {
	lastT    int64
	lastV    float64
	area     float64
	started  bool
	max      float64
	duration int64
}

// Update records that the tracked quantity changed to v at time t.
func (tw *TimeWeighted) Update(t int64, v float64) {
	if !tw.started {
		tw.started = true
		tw.lastT, tw.lastV = t, v
		tw.max = v
		return
	}
	if t < tw.lastT {
		panic("stats: TimeWeighted time went backwards")
	}
	tw.area += tw.lastV * float64(t-tw.lastT)
	tw.duration += t - tw.lastT
	tw.lastT, tw.lastV = t, v
	if v > tw.max {
		tw.max = v
	}
}

// Mean returns the time-weighted average up to the last update.
func (tw *TimeWeighted) Mean() float64 {
	if tw.duration == 0 {
		return tw.lastV
	}
	return tw.area / float64(tw.duration)
}

// Max returns the largest value observed.
func (tw *TimeWeighted) Max() float64 { return tw.max }

// Current returns the most recent value.
func (tw *TimeWeighted) Current() float64 { return tw.lastV }

// Point is one (x, y) sample of a figure series.
type Point struct {
	X, Y float64
}

// Series is a labelled sequence of points: one curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// Monotone reports whether the series is non-decreasing (dir > 0) or
// non-increasing (dir < 0) in y, within a relative tolerance tol. The
// experiment harness uses it to assert shape claims like "η rises with N".
func (s *Series) Monotone(dir int, tol float64) bool {
	for i := 1; i < len(s.Points); i++ {
		prev, cur := s.Points[i-1].Y, s.Points[i].Y
		slack := tol * math.Max(math.Abs(prev), math.Abs(cur))
		if dir > 0 && cur < prev-slack {
			return false
		}
		if dir < 0 && cur > prev+slack {
			return false
		}
	}
	return true
}

// Crossover returns the x at which series a first drops below (or rises
// above) series b, interpolating linearly, and reports whether a crossover
// exists. Both series must be sampled at the same x values.
func Crossover(a, b *Series) (float64, bool) {
	n := len(a.Points)
	if n != len(b.Points) || n == 0 {
		return 0, false
	}
	sign := func(i int) int {
		d := a.Points[i].Y - b.Points[i].Y
		switch {
		case d > 0:
			return 1
		case d < 0:
			return -1
		}
		return 0
	}
	prev := sign(0)
	for i := 1; i < n; i++ {
		cur := sign(i)
		if cur != prev && cur != 0 && prev != 0 {
			// Linear interpolation of the zero of (a-b).
			x0, x1 := a.Points[i-1].X, a.Points[i].X
			d0 := a.Points[i-1].Y - b.Points[i-1].Y
			d1 := a.Points[i].Y - b.Points[i].Y
			t := d0 / (d0 - d1)
			return x0 + t*(x1-x0), true
		}
		if cur != 0 {
			prev = cur
		}
	}
	return 0, false
}

// Table is a simple fixed-column text table used by the harness to print the
// same rows the paper reports.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells beyond the column count are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// AddRowf appends a row of formatted values; each value is rendered with %v
// unless it is a float64, which uses %.4g.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			row = append(row, fmt.Sprintf("%.4g", v))
		default:
			row = append(row, fmt.Sprintf("%v", v))
		}
	}
	t.AddRow(row...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, w := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w, cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
