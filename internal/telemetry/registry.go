package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a set of named metrics. Registration (Counter, Gauge, ...)
// takes a mutex; the returned handles update through atomics only, so the
// hot path is lock-free. Registering the same name+labels twice returns the
// same handle (and panics if the kinds disagree — that is a programming
// error, not a runtime condition). Func metrics are the exception: they
// read external state owned by exactly one registrant, so re-registering
// one panics — components sharing a registry must carry distinguishing
// labels (the per-card `card="N"` scheme of the serving fleet).
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	index   map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]metric)}
}

// metric is the common interface the exposition writers consume.
type metric interface {
	meta() desc
	// sample returns the metric's current value for JSON exposition.
	sample() any
	// writeProm appends the sample lines (no HELP/TYPE header).
	writeProm(b *strings.Builder)
}

// desc is the identity shared by every metric kind.
type desc struct {
	family string // metric family name, e.g. "phiserve_cycles_total"
	labels string // rendered label set, e.g. `{phase="mul"}`, or ""
	help   string
	kind   string // "counter" | "gauge" | "histogram"
}

func (d desc) fullName() string { return d.family + d.labels }

// renderLabels turns ("phase", "mul", "key", "rsa1024") into
// `{phase="mul",key="rsa1024"}`. Values are escaped per the Prometheus text
// format. Panics on an odd pair count: label sets are static call sites.
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("telemetry: label pairs must be key,value,...")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		v := pairs[i+1]
		v = strings.ReplaceAll(v, `\`, `\\`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		b.WriteString(v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// register returns the existing metric under key or creates one with mk.
func (r *Registry) register(d desc, mk func() metric) metric {
	key := d.fullName()
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.index[key]; ok {
		if m.meta().kind != d.kind {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)",
				key, d.kind, m.meta().kind))
		}
		if _, isFunc := m.(*FuncMetric); isFunc {
			// A func metric reads one component's external state; a second
			// registrant's function would be dropped on the floor and its
			// component silently unobserved (two servers sharing a registry
			// must use distinct label sets instead).
			panic(fmt.Sprintf("telemetry: func metric %q registered twice; "+
				"add distinguishing labels (e.g. card=\"1\") when components share a registry", key))
		}
		return m
	}
	m := mk()
	r.index[key] = m
	r.metrics = append(r.metrics, m)
	return m
}

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing integer metric. All methods are
// safe on a nil receiver (no-ops / zero).
type Counter struct {
	d desc
	v atomic.Int64
}

// Counter registers (or finds) an integer counter. labels are key,value
// pairs. Returns nil if r is nil.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	d := desc{family: name, labels: renderLabels(labels), help: help, kind: "counter"}
	return r.register(d, func() metric { return &Counter{d: d} }).(*Counter)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (which must not be negative; counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) meta() desc  { return c.d }
func (c *Counter) sample() any { return c.Value() }
func (c *Counter) writeProm(b *strings.Builder) {
	b.WriteString(c.d.fullName())
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(c.Value(), 10))
	b.WriteByte('\n')
}

// ---------------------------------------------------------------------------
// FloatCounter

// FloatCounter is a monotonically increasing float metric (simulated cycles
// are fractional: the cost tables charge e.g. 0.25 cycles per mask op).
// Updates are a CAS loop on the float's bit pattern.
type FloatCounter struct {
	d    desc
	bits atomic.Uint64
}

// FloatCounter registers (or finds) a float counter. Returns nil if r is nil.
func (r *Registry) FloatCounter(name, help string, labels ...string) *FloatCounter {
	if r == nil {
		return nil
	}
	d := desc{family: name, labels: renderLabels(labels), help: help, kind: "counter"}
	return r.register(d, func() metric { return &FloatCounter{d: d} }).(*FloatCounter)
}

// Add adds f.
func (c *FloatCounter) Add(f float64) {
	if c == nil {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + f)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current sum.
func (c *FloatCounter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

func (c *FloatCounter) meta() desc  { return c.d }
func (c *FloatCounter) sample() any { return c.Value() }
func (c *FloatCounter) writeProm(b *strings.Builder) {
	b.WriteString(c.d.fullName())
	b.WriteByte(' ')
	b.WriteString(formatFloat(c.Value()))
	b.WriteByte('\n')
}

// ---------------------------------------------------------------------------
// Gauge

// Gauge is a float metric that can go up and down.
type Gauge struct {
	d    desc
	bits atomic.Uint64
}

// Gauge registers (or finds) a gauge. Returns nil if r is nil.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	d := desc{family: name, labels: renderLabels(labels), help: help, kind: "gauge"}
	return r.register(d, func() metric { return &Gauge{d: d} }).(*Gauge)
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (CAS loop).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) meta() desc  { return g.d }
func (g *Gauge) sample() any { return g.Value() }
func (g *Gauge) writeProm(b *strings.Builder) {
	b.WriteString(g.d.fullName())
	b.WriteByte(' ')
	b.WriteString(formatFloat(g.Value()))
	b.WriteByte('\n')
}

// ---------------------------------------------------------------------------
// Func metrics (read-through gauges/counters over external state)

// FuncMetric exposes a value computed at scrape time — the bridge for
// state another component already tracks (e.g. a server's delay estimate).
type FuncMetric struct {
	d  desc
	fn func() float64
}

// GaugeFunc registers a read-through gauge. Unlike the stateful kinds,
// registering the same name+labels twice panics (the second function would
// be silently dropped). Returns nil if r is nil.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) *FuncMetric {
	if r == nil {
		return nil
	}
	d := desc{family: name, labels: renderLabels(labels), help: help, kind: "gauge"}
	return r.register(d, func() metric { return &FuncMetric{d: d, fn: fn} }).(*FuncMetric)
}

// CounterFunc registers a read-through counter. Unlike the stateful kinds,
// registering the same name+labels twice panics (the second function would
// be silently dropped). Returns nil if r is nil.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) *FuncMetric {
	if r == nil {
		return nil
	}
	d := desc{family: name, labels: renderLabels(labels), help: help, kind: "counter"}
	return r.register(d, func() metric { return &FuncMetric{d: d, fn: fn} }).(*FuncMetric)
}

// Value calls the underlying function.
func (f *FuncMetric) Value() float64 {
	if f == nil || f.fn == nil {
		return 0
	}
	return f.fn()
}

func (f *FuncMetric) meta() desc  { return f.d }
func (f *FuncMetric) sample() any { return f.Value() }
func (f *FuncMetric) writeProm(b *strings.Builder) {
	b.WriteString(f.d.fullName())
	b.WriteByte(' ')
	b.WriteString(formatFloat(f.Value()))
	b.WriteByte('\n')
}

// ---------------------------------------------------------------------------
// Histogram

// Histogram counts observations into cumulative-style buckets with fixed
// upper bounds (Prometheus `le` semantics: an observation lands in the
// first bucket whose bound is >= the value; values above every bound land
// in the implicit +Inf bucket). Observations are atomic; sum is a float
// CAS. Bounds are fixed at registration.
type Histogram struct {
	d       desc
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1, last is +Inf
	sumBits atomic.Uint64
	count   atomic.Int64
}

// Histogram registers (or finds) a histogram with the given ascending
// bucket upper bounds. Returns nil if r is nil.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("telemetry: histogram bounds must be ascending")
	}
	d := desc{family: name, labels: renderLabels(labels), help: help, kind: "histogram"}
	return r.register(d, func() metric {
		return &Histogram{
			d:       d,
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]atomic.Int64, len(bounds)+1),
		}
	}).(*Histogram)
}

// Observe records one observation of v.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of v in one shot — the batch scheduler
// resolves up to sixteen requests with the same per-lane latency per pass.
func (h *Histogram) ObserveN(v float64, n int64) {
	if h == nil || n <= 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(n)
	h.count.Add(n)
	add := v * float64(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + add)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the +Inf bucket.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution by linear interpolation inside the containing bucket — the
// standard Prometheus histogram_quantile estimate, computed locally so p50
// and p99 are scrapeable as plain gauges without a query engine. Log
// buckets bound the relative error to the bucket growth factor (2x for
// Pow2Buckets). Observations in the +Inf bucket clamp to the last finite
// bound. Returns 0 for a nil or empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts := h.BucketCounts()
	total := int64(0)
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := float64(0)
	for i, n := range counts {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next < rank {
			cum = next
			continue
		}
		if i >= len(h.bounds) {
			// +Inf bucket: no finite upper edge to interpolate toward.
			if len(h.bounds) == 0 {
				return 0
			}
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		return lo + (hi-lo)*(rank-cum)/float64(n)
	}
	return h.bounds[len(h.bounds)-1]
}

// Bounds returns the bucket upper bounds (without the implicit +Inf).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

func (h *Histogram) meta() desc { return h.d }

func (h *Histogram) sample() any {
	counts := h.BucketCounts()
	buckets := make(map[string]int64, len(counts))
	cum := int64(0)
	for i, n := range counts {
		cum += n
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		buckets[le] = cum
	}
	return map[string]any{"count": h.Count(), "sum": h.Sum(), "buckets": buckets}
}

func (h *Histogram) writeProm(b *strings.Builder) {
	// Splice the le label into any existing label set.
	openLabels := func(le string) string {
		if h.d.labels == "" {
			return `{le="` + le + `"}`
		}
		return strings.TrimSuffix(h.d.labels, "}") + `,le="` + le + `"}`
	}
	cum := int64(0)
	counts := h.BucketCounts()
	for i, n := range counts {
		cum += n
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		b.WriteString(h.d.family)
		b.WriteString("_bucket")
		b.WriteString(openLabels(le))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(cum, 10))
		b.WriteByte('\n')
	}
	b.WriteString(h.d.family)
	b.WriteString("_sum")
	b.WriteString(h.d.labels)
	b.WriteByte(' ')
	b.WriteString(formatFloat(h.Sum()))
	b.WriteByte('\n')
	b.WriteString(h.d.family)
	b.WriteString("_count")
	b.WriteString(h.d.labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(h.Count(), 10))
	b.WriteByte('\n')
}

// Pow2Buckets returns upper bounds lo, 2lo, 4lo, ... until hi is covered —
// the log-bucketed shape used for latency and cycle histograms, where the
// interesting dynamic range spans several orders of magnitude.
func Pow2Buckets(lo, hi float64) []float64 {
	if lo <= 0 || hi < lo {
		panic("telemetry: Pow2Buckets needs 0 < lo <= hi")
	}
	var out []float64
	for v := lo; ; v *= 2 {
		out = append(out, v)
		if v >= hi {
			return out
		}
	}
}

// LinearBuckets returns n upper bounds start, start+width, ... — used for
// the batch fill histogram (exactly one bucket per lane count).
func LinearBuckets(start, width float64, n int) []float64 {
	if n <= 0 || width <= 0 {
		panic("telemetry: LinearBuckets needs n > 0 and width > 0")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ---------------------------------------------------------------------------
// Exposition

// formatFloat renders a float like Prometheus clients do: shortest
// round-trip representation, integral values without an exponent.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (version 0.0.4), grouped by family with one HELP/TYPE header
// each. Safe on a nil registry (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := append([]metric(nil), r.metrics...)
	r.mu.Unlock()

	// Group members by family, preserving first-registration order.
	var order []string
	families := make(map[string][]metric)
	for _, m := range metrics {
		f := m.meta().family
		if _, ok := families[f]; !ok {
			order = append(order, f)
		}
		families[f] = append(families[f], m)
	}

	var b strings.Builder
	for _, f := range order {
		ms := families[f]
		d := ms[0].meta()
		if d.help != "" {
			b.WriteString("# HELP ")
			b.WriteString(f)
			b.WriteByte(' ')
			b.WriteString(d.help)
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(f)
		b.WriteByte(' ')
		b.WriteString(d.kind)
		b.WriteByte('\n')
		for _, m := range ms {
			m.writeProm(&b)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON writes every metric as a single flat JSON object keyed by full
// metric name (expvar style; histograms expand to {count, sum, buckets}).
// Keys are sorted, so successive scrapes diff cleanly. Safe on a nil
// registry (writes an empty object).
func (r *Registry) WriteJSON(w io.Writer) error {
	vars := make(map[string]any)
	if r != nil {
		r.mu.Lock()
		metrics := append([]metric(nil), r.metrics...)
		r.mu.Unlock()
		for _, m := range metrics {
			vars[m.meta().fullName()] = m.sample()
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(vars)
}
