package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"

	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phiwork"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of values,
// and whether at least minBeyond samples lie beyond it.
func percentile(values []float64, p float64) (float64, bool) {
	if len(values) == 0 {
		return 0, false
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= minBeyond
}

func median(values []float64) float64 {
	v, _ := percentile(values, 0.5)
	return v
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// counts tallies the requests sent inside a window.
type counts struct {
	attempted, succeeded    int
	refused, failed, wrong  int // refused at submit; failed after; wrong output
	shed, expired, overflow int
	errored                 int // errors other than shedding, expiry and overflow
	okInLimit               int
}

// tally counts the requests sent inside the timed window.
func tally(rd *runData, limit time.Duration) counts {
	return tallyIf(rd, limit, func(r *record) bool { return r.inWindow })
}

func tallyIf(rd *runData, limit time.Duration, sent func(*record) bool) counts {
	var c counts
	for i := range rd.recs {
		r := &rd.recs[i]
		if !sent(r) {
			continue
		}
		c.attempted++
		switch {
		case r.recv == 0:
			c.refused++
		case r.outcome != outOK:
			c.failed++
		}
		switch r.outcome {
		case outOK:
			c.succeeded++
			if r.latency(rd.open) <= int64(limit) {
				c.okInLimit++
			}
		case outWrong:
			c.wrong++
		case outShed:
			c.shed++
		case outExpired:
			c.expired++
		case outOverflow:
			c.overflow++
		case outFailed:
			c.errored++
		}
	}
	return c
}

// sloMissFrac is the share of attempted requests that were refused,
// failed, or completed past the latency limit.
func (c counts) sloMissFrac() float64 {
	return 1 - float64(c.okInLimit)/float64(c.attempted)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// completedIn counts correct completions received inside iv, and those
// among them that met the limit.
func completedIn(rd *runData, iv interval, limit time.Duration) (ok, inLimit int) {
	for i := range rd.recs {
		r := &rd.recs[i]
		if r.outcome == outOK && r.recv >= iv.from.at && r.recv < iv.to.at {
			ok++
			if r.latency(rd.open) <= int64(limit) {
				inLimit++
			}
		}
	}
	return ok, inLimit
}

// cpuPerOp is process CPU milliseconds per correct completion inside iv.
func cpuPerOp(rd *runData, iv interval, limit time.Duration) float64 {
	ok, _ := completedIn(rd, iv, limit)
	return float64(iv.to.cpu-iv.from.cpu) / 1e6 / float64(ok)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// endToEnd computes the user-facing metrics of an untraced run: each is
// the median of its values over the window's parts. The p99 falls back to
// the whole window when a part holds too few completions to support it
// (a host slowed by contention), and the run fails when even the whole
// window cannot.
func endToEnd(sp spec, pools []*pool, rd *runData, setupS float64) (metricSet, error) {
	vals := map[string][]float64{}
	partsSupportP99 := true
	for _, iv := range rd.subWindows() {
		sent := func(r *record) bool { return rd.sentIn(r, iv) }
		lat, light := latencies(rd, pools, sent)
		p99, ok := percentile(lat, 0.99)
		partsSupportP99 = partsSupportP99 && ok
		okN, inLimit := completedIn(rd, iv, sp.limit)
		for name, v := range map[string]float64{
			"ops_s":          float64(okN) / iv.seconds(),
			"goodput_ops_s":  float64(inLimit) / iv.seconds(),
			"latency_p50_ms": median(lat),
			"latency_p99_ms": p99,
			"light_p50_ms":   median(light),
			"slo_met_frac":   1 - tallyIf(rd, sp.limit, sent).sloMissFrac(),
			"cpu_ms_per_op":  cpuPerOp(rd, iv, sp.limit),
		} {
			vals[name] = append(vals[name], v)
		}
	}
	p99 := median(vals["latency_p99_ms"])
	if !partsSupportP99 {
		lat, _ := latencies(rd, pools, func(r *record) bool { return r.inWindow })
		var ok bool
		if p99, ok = percentile(lat, 0.99); !ok {
			return nil, fmt.Errorf("%d completions cannot support a p99 (need %d beyond it); run longer", len(lat), minBeyond)
		}
	}
	m := metricSet{}
	m.set("setup_s", setupS, "s")
	m.set("ops_s", median(vals["ops_s"]), "1/s")
	m.set("goodput_ops_s", median(vals["goodput_ops_s"]), "1/s")
	m.set("latency_p50_ms", median(vals["latency_p50_ms"]), "ms")
	m.set("latency_p99_ms", p99, "ms")
	m.set("light_p50_ms", median(vals["light_p50_ms"]), "ms")
	m.set("slo_met_frac", median(vals["slo_met_frac"]), "ratio")
	m.set("cpu_ms_per_op", median(vals["cpu_ms_per_op"]), "ms")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	return m, nil
}

// latencies returns the latencies (ms) of the correct completions sent as
// the filter says, and those of the light-class ones among them; a mix with
// no light kind reports every completion as its light set.
func latencies(rd *runData, pools []*pool, sent func(*record) bool) (all, light []float64) {
	lightMix := false
	for _, p := range pools {
		lightMix = lightMix || p.w.Class() == phiwork.ClassLight
	}
	for i := range rd.recs {
		r := &rd.recs[i]
		if r.outcome != outOK || !sent(r) {
			continue
		}
		l := ms(r.latency(rd.open))
		all = append(all, l)
		if !lightMix || pools[r.pool].w.Class() == phiwork.ClassLight {
			light = append(light, l)
		}
	}
	return all, light
}

// perLayer computes the layer metrics of a traced run. probe holds the
// isolated pass times of kinds outside the mix; untracedCPU is the
// cpu_ms_per_op of the untraced comparison run.
func perLayer(sp spec, pools []*pool, rd *runData, spans []span,
	probe map[phiwork.Kind]float64, untracedCPU float64) (metricSet, []stages, error) {
	match, err := matchLanes(rd.recs, spans, pools)
	if err != nil {
		return nil, nil, err
	}
	var all []stages
	var wait, deliver, submit, door, gen []float64
	for i := range rd.recs {
		r := &rd.recs[i]
		if !r.inWindow {
			continue
		}
		gen = append(gen, ms(r.sub-r.ready))
		if r.bsub != 0 {
			submit = append(submit, float64(r.bret-r.bsub))
			door = append(door, float64((r.ret-r.sub)-(r.bret-r.bsub)))
		}
		if match[i] < 0 {
			continue
		}
		st, err := splitStages(r, &spans[match[i]], rd.open)
		if err != nil {
			return nil, nil, fmt.Errorf("request %d stage-sum check: %w", i, err)
		}
		all = append(all, st)
		wait = append(wait, ms(st.wait))
		deliver = append(deliver, us(st.deliver))
	}

	m := metricSet{}
	passes := map[phiwork.Kind][]float64{}
	var busy int64
	for _, s := range spans {
		if s.start >= rd.ws && s.start < rd.we && !s.scalar {
			passes[s.kind] = append(passes[s.kind], ms(s.end-s.start))
		}
		busy += max(0, min(s.end, rd.we)-max(s.start, rd.ws))
	}
	passMS := map[phiwork.Kind]float64{}
	for _, k := range phiwork.Kinds() {
		v, ok := probe[k]
		if len(passes[k]) > 0 {
			v, ok = median(passes[k]), true
		}
		if !ok {
			return nil, nil, fmt.Errorf("no pass time for %s", k)
		}
		passMS[k] = v
		m.set("phiwork.pass_ms."+string(k), v, "ms")
	}

	w := rd.whole()
	d := diffStats(w.from.layers, w.to.layers)
	okN, _ := completedIn(rd, w, sp.limit)
	opsS := float64(okN) / w.seconds()
	m.set("phiwork.sim_cycles_per_op", d.cyclesPerOp, "cycles")
	m.set("phipool.busy_frac", float64(busy)/float64(int64(workers)*(rd.we-rd.ws)), "ratio")
	m.set("phipool.queue_depth_mean", meanInt(rd.queueDepth), "batches")
	m.set("phiserve.mean_fill", d.meanFill, "lanes")
	m.set("phiserve.deadline_fire_frac", d.fireFrac, "ratio")
	m.set("phiserve.pending_lanes_mean", meanInt(rd.pendingLanes), "lanes")
	w50, _ := percentile(wait, 0.5)
	w99, _ := percentile(wait, 0.99)
	m.set("phiserve.wait_ms_p50", w50, "ms")
	m.set("phiserve.wait_ms_p99", w99, "ms")
	m.set("phiserve.deliver_us_p50", median(deliver), "us")
	// The kernel ceiling: every worker running full passes of the mix.
	var lanePass float64
	for _, p := range pools {
		lanePass += float64(p.weight) / float64(sp.weightSum()) * passMS[p.kind]
	}
	ceiling := float64(workers*phiserve.BatchSize) / (lanePass / 1e3)
	m.set("phiserve.served_over_ceiling", opsS/ceiling, "ratio")
	m.set("phiserve.degraded_ops", float64(d.degraded), "count")
	s50, _ := percentile(submit, 0.5)
	s99, _ := percentile(submit, 0.99)
	m.set("phifleet.submit_us_p50", s50/1e3, "us")
	m.set("phifleet.submit_ms_p99", s99/1e6, "ms")
	m.set("phifleet.steal_frac", d.stealFrac, "ratio")
	m.set("phifleet.card_skew", d.cardSkew, "ratio")
	m.set("phiadmit.door_us_p50", median(door)/1e3, "us")
	c := tally(rd, sp.limit)
	m.set("phiadmit.shed_frac", float64(c.shed)/float64(c.attempted), "ratio")
	m.set("phiadmit.expired_frac", float64(c.expired)/float64(c.attempted), "ratio")
	m.set("runtime.allocs_per_op", float64(w.to.allocs-w.from.allocs)/float64(okN), "count")
	m.set("runtime.alloc_bytes_per_op", float64(w.to.allocBytes-w.from.allocBytes)/float64(okN), "B")
	m.set("runtime.gc_cpu_frac", (w.to.gcCPU-w.from.gcCPU)/(w.to.totalCPU-w.from.totalCPU), "ratio")
	g99, _ := percentile(gen, 0.99)
	m.set("bench.gen_late_ms_p99", g99, "ms")
	m.set("bench.trace_overhead_frac", cpuPerOp(rd, w, sp.limit)/untracedCPU-1, "ratio")
	return m, all, nil
}

func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// statsDelta is what the serving tier's counters say about the window.
type statsDelta struct {
	cyclesPerOp, meanFill, fireFrac float64
	stealFrac, cardSkew             float64
	degraded                        int64
}

func diffStats(a, b layerStats) statsDelta {
	x, y := a.serve, b.serve
	var d statsDelta
	done := y.Completed - x.Completed
	batches := y.Batches - x.Batches
	var lanes int64
	for i := range y.FillHist {
		lanes += int64(i+1) * (y.FillHist[i] - x.FillHist[i])
	}
	if done > 0 {
		d.cyclesPerOp = (y.TotalSimCycles + y.FallbackCycles - x.TotalSimCycles - x.FallbackCycles) / float64(done)
		d.stealFrac = float64(b.redispatched-a.redispatched) / float64(done)
	}
	if batches > 0 {
		d.meanFill = float64(lanes) / float64(batches)
		d.fireFrac = float64(y.DeadlineFires-x.DeadlineFires) / float64(batches)
	}
	d.degraded = (y.FallbackOps - x.FallbackOps) + (y.Retries - x.Retries) + (y.OverflowDropped - x.OverflowDropped)
	var most, sum int64
	for i := range b.cardDone {
		n := b.cardDone[i] - a.cardDone[i]
		most = max(most, n)
		sum += n
	}
	if sum > 0 {
		d.cardSkew = float64(most) / (float64(sum) / float64(len(b.cardDone)))
	}
	return d
}
