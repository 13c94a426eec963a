package metrics

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("frames_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("frames_total") != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("rate_fraction")
	g.Set(0.5)
	g.Set(0.25)
	if got := g.Value(); got != 0.25 {
		t.Fatalf("gauge = %g, want 0.25", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", ExpBuckets(1, 2, 4))
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(2)
	if c.Value() != 0 || g.Value() != 0 || h.N() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if snap := r.Snapshot(); snap.Counters != nil || snap.Gauges != nil {
		t.Fatal("nil registry snapshot must be empty")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := New()
	h := r.Histogram("delay_ns", []float64{10, 100, 1000})
	for _, v := range []float64{5, 10, 11, 150, 5000, -1} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["delay_ns"]
	// v <= bound: {5,10,-1} -> le=10; {11} -> le=100; {150} -> le=1000; {5000} -> +Inf.
	want := []uint64{3, 1, 1, 1}
	if !reflect.DeepEqual(snap.Counts, want) {
		t.Fatalf("counts = %v, want %v", snap.Counts, want)
	}
	if snap.Count != 6 {
		t.Fatalf("count = %d, want 6", snap.Count)
	}
	if h.Sum() != snap.Sum {
		t.Fatalf("sum = %g, snapshot sum = %g", h.Sum(), snap.Sum)
	}
}

func TestExpBuckets(t *testing.T) {
	if got := ExpBuckets(1, 2, 4); !reflect.DeepEqual(got, []float64{1, 2, 4, 8}) {
		t.Fatalf("exp buckets = %v", got)
	}
	if ExpBuckets(0, 2, 4) != nil || ExpBuckets(1, 1, 4) != nil || ExpBuckets(1, 2, 0) != nil {
		t.Fatal("degenerate bucket requests must return nil")
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := New()
		r.Counter("b_total").Add(2)
		r.Counter("a_total").Add(1)
		r.Gauge("g").Set(3.5)
		r.Histogram("h_ns", ExpBuckets(10, 10, 3)).Observe(42)
		return r.Snapshot()
	}
	s1, s2 := build(), build()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("identical registries must snapshot equal")
	}
	j1, j2 := s1.JSON(), s2.JSON()
	if string(j1) != string(j2) {
		t.Fatalf("snapshot JSON not deterministic:\n%s\n%s", j1, j2)
	}
	var round Snapshot
	if err := json.Unmarshal(j1, &round); err != nil {
		t.Fatal(err)
	}
	if round.Counters["a_total"] != 1 || round.Counters["b_total"] != 2 {
		t.Fatalf("round trip lost counters: %s", j1)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("frames_sent_total").Add(7)
	r.Gauge("queue_len").Set(3)
	h := r.Histogram("delay_ns", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE frames_sent_total counter\nframes_sent_total 7\n",
		"# TYPE queue_len gauge\nqueue_len 3\n",
		"# TYPE delay_ns histogram\n",
		"delay_ns_bucket{le=\"10\"} 1\n",
		"delay_ns_bucket{le=\"100\"} 2\n",
		"delay_ns_bucket{le=\"+Inf\"} 3\n",
		"delay_ns_sum 555\n",
		"delay_ns_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentWritersAndSnapshots(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared_total")
			h := r.Histogram("shared_ns", ExpBuckets(1, 2, 8))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i))
				if i%100 == 0 {
					_ = r.Snapshot() // concurrent reads must be safe
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("shared_ns", nil).N(); got != workers*perWorker {
		t.Fatalf("histogram N = %d, want %d", got, workers*perWorker)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := New().Counter("x_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := New().Histogram("x_ns", ExpBuckets(100, 2, 24))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 100000))
	}
}
