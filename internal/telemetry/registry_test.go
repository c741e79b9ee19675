package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var tel *Telemetry
	if tel.Reg() != nil || tel.Trace() != nil {
		t.Fatalf("nil Telemetry must hand out nil sinks")
	}
	var r *Registry
	c := r.Counter("x", "")
	fc := r.FloatCounter("x", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x", "", []float64{1})
	f := r.GaugeFunc("x", "", func() float64 { return 1 })
	if c != nil || fc != nil || g != nil || h != nil || f != nil {
		t.Fatalf("nil registry must hand out nil metrics")
	}
	// Every method on a nil handle is a no-op.
	c.Inc()
	c.Add(3)
	fc.Add(1.5)
	g.Set(2)
	g.Add(-1)
	h.Observe(1)
	h.ObserveN(2, 4)
	if c.Value() != 0 || fc.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || f.Value() != 0 {
		t.Fatalf("nil metrics must read zero")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry WritePrometheus = %q, %v", sb.String(), err)
	}
	sb.Reset()
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatalf("nil registry WriteJSON: %v", err)
	}
	var tr *Tracer
	tr.Slice(0, "x", timeZero(), 0, nil)
	tr.Instant(0, "x", nil)
	tr.Span("1", "x", timeZero(), timeZero(), nil, []Mark{{Name: "x"}}, nil)
	tr.NameThread(0, "x")
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatalf("nil tracer must be inert")
	}
	sb.Reset()
	if err := tr.Export(&sb); err != nil {
		t.Fatalf("nil tracer Export: %v", err)
	}
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("nil tracer export must still be valid JSON: %v", err)
	}
}

func TestCounterAndGaugeSemantics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Get-or-create: same name returns the same handle.
	if c2 := r.Counter("ops_total", "ops"); c2 != c {
		t.Fatalf("re-registration must return the same handle")
	}
	// Labelled variants are distinct series.
	cm := r.Counter("cycles_total", "", "phase", "mul")
	cr := r.Counter("cycles_total", "", "phase", "reduce")
	if cm == cr {
		t.Fatalf("different label sets must be different series")
	}
	cm.Add(7)
	if cr.Value() != 0 {
		t.Fatalf("label series must not share state")
	}
	g := r.Gauge("depth", "")
	g.Set(3)
	g.Add(-1.5)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}
	fc := r.FloatCounter("f", "")
	fc.Add(0.25)
	fc.Add(0.25)
	if fc.Value() != 0.5 {
		t.Fatalf("float counter = %v, want 0.5", fc.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("m", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("fill", "", LinearBuckets(1, 1, 16))
	// Prometheus le semantics: v == bound lands in that bucket.
	h.Observe(1)
	h.Observe(16)
	h.ObserveN(16, 3)
	h.Observe(17) // +Inf
	counts := h.BucketCounts()
	if counts[0] != 1 {
		t.Fatalf("le=1 bucket = %d, want 1", counts[0])
	}
	if counts[15] != 4 {
		t.Fatalf("le=16 bucket = %d, want 4", counts[15])
	}
	if counts[16] != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", counts[16])
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if want := 1.0 + 16*4 + 17; h.Sum() != want {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
}

func TestBucketHelpers(t *testing.T) {
	b := Pow2Buckets(1, 8)
	if want := []float64{1, 2, 4, 8}; len(b) != len(want) {
		t.Fatalf("Pow2Buckets(1,8) = %v", b)
	}
	for i, v := range []float64{1, 2, 4, 8} {
		if b[i] != v {
			t.Fatalf("Pow2Buckets(1,8)[%d] = %v, want %v", i, b[i], v)
		}
	}
	lb := LinearBuckets(1, 1, 3)
	for i, v := range []float64{1, 2, 3} {
		if lb[i] != v {
			t.Fatalf("LinearBuckets[%d] = %v, want %v", i, lb[i], v)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	fc := r.FloatCounter("f", "")
	h := r.Histogram("h", "", Pow2Buckets(1, 1024))
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				fc.Add(0.5)
				h.Observe(float64(i % 100))
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if fc.Value() != workers*per*0.5 {
		t.Fatalf("float counter = %v, want %v", fc.Value(), workers*per*0.5)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "requests", "kind", "single").Add(3)
	r.Counter("reqs_total", "requests", "kind", "burst").Add(4)
	r.Gauge("depth", "queue depth").Set(2.5)
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP reqs_total requests\n",
		"# TYPE reqs_total counter\n",
		`reqs_total{kind="single"} 3` + "\n",
		`reqs_total{kind="burst"} 4` + "\n",
		"# TYPE depth gauge\n",
		"depth 2.5\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.1"} 1` + "\n",
		`lat_seconds_bucket{le="1"} 2` + "\n",
		`lat_seconds_bucket{le="+Inf"} 3` + "\n",
		"lat_seconds_sum 5.55\n",
		"lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// The family header must appear exactly once even with two series.
	if strings.Count(out, "# TYPE reqs_total") != 1 {
		t.Fatalf("family header repeated:\n%s", out)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "", "k", "v").Add(2)
	h := r.Histogram("h", "", []float64{1, 2})
	h.Observe(1.5)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v\n%s", err, sb.String())
	}
	if v, ok := doc[`c{k="v"}`].(float64); !ok || v != 2 {
		t.Fatalf("counter sample = %v", doc[`c{k="v"}`])
	}
	hv, ok := doc["h"].(map[string]any)
	if !ok {
		t.Fatalf("histogram sample = %v", doc["h"])
	}
	if hv["count"].(float64) != 1 || hv["sum"].(float64) != 1.5 {
		t.Fatalf("histogram sample = %v", hv)
	}
	buckets := hv["buckets"].(map[string]any)
	if buckets["2"].(float64) != 1 || buckets["+Inf"].(float64) != 1 {
		t.Fatalf("histogram buckets = %v", buckets)
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	depth := 7.0
	r.GaugeFunc("queue_depth", "", func() float64 { return depth })
	r.CounterFunc("jobs_total", "", func() float64 { return 42 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "queue_depth 7\n") || !strings.Contains(out, "jobs_total 42\n") {
		t.Fatalf("func metrics missing:\n%s", out)
	}
}

// TestFuncMetricReregistrationPanics: a second registrant's function would
// be silently dropped (its component unobserved), so the registry must
// refuse loudly. Distinct label sets remain fine — that is how the
// multi-card fleet shares one registry.
func TestFuncMetricReregistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("breaker_trips_total", "", func() float64 { return 1 })
	// Same family under another label set: a new series, no conflict.
	r.CounterFunc("breaker_trips_total", "", func() float64 { return 2 }, "card", "1")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a func metric with an identical name+labels must panic")
		}
	}()
	r.CounterFunc("breaker_trips_total", "", func() float64 { return 3 })
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		3:       "3",
		2.5:     "2.5",
		1e6:     "1000000",
		1e-9:    "1e-09",
		math.Pi: "3.141592653589793",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
