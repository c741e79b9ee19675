package main

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"syscall"
	"time"

	"runtime/metrics"

	"phiopenssl/internal/phiadmit"
	"phiopenssl/internal/phiserve"
)

// outcome is how one request resolved.
type outcome uint8

const (
	outOK       outcome = iota
	outWrong            // completed with an output that differs from the reference
	outShed             // refused at the admission door
	outExpired          // deadline passed before a pass could serve it
	outOverflow         // shed by the scheduler's full overflow list
	outFailed           // any other error
)

// record is one request's life, in nanoseconds since the run's epoch.
type record struct {
	pool  int // index into the run's pools
	input int // index into that pool's inputs
	// ready is when the request could go: its scheduled send time on an
	// open loop, the client's previous receive on a closed loop.
	ready int64
	sub   int64 // client submit call start
	ret   int64 // client submit call return
	recv  int64 // result received; 0 when the submit call refused it
	// bsub and bret bracket the backend SubmitWork call (traced runs).
	bsub, bret int64
	inWindow   bool
	storm      bool // sent by the spec's storm tenant
	outcome    outcome
}

// latency is measured from the scheduled send time on open loops and from
// the submit call on closed loops.
func (r *record) latency(open bool) int64 {
	if open {
		return r.recv - r.ready
	}
	return r.recv - r.sub
}

// recordKey carries a request's *record through the context so the traced
// backend wrapper can stamp the backend call.
type recordKey struct{}

// snapshot is the process and serving-tier state at one instant.
type snapshot struct {
	at         int64
	cpu        time.Duration // process user+sys CPU
	layers     layerStats
	allocs     uint64
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeSnapshot(at int64, st *stack) snapshot {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return snapshot{
		at:         at,
		cpu:        processCPU(),
		layers:     st.stats(),
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// parts is how many equal sub-windows the timed window is split into. The
// end-to-end metrics are each sub-window's value's median, so a burst of
// host contention inside one sub-window does not move them.
const parts = 3

// runData is everything one timed run produced.
type runData struct {
	open   bool
	ws, we int64 // nominal window start and end
	recs   []record
	// snaps are taken at the parts+1 sub-window boundaries.
	snaps        []snapshot
	queueDepth   []int // sampled Stats.QueueDepth (traced runs)
	pendingLanes []int // sampled Stats.PendingLanes (traced runs)
}

// interval is a stretch of the window as two snapshots bracketed it.
type interval struct{ from, to snapshot }

func (iv interval) seconds() float64 { return float64(iv.to.at-iv.from.at) / 1e9 }

// whole is the full timed window.
func (rd *runData) whole() interval { return interval{rd.snaps[0], rd.snaps[len(rd.snaps)-1]} }

// subWindows are the window's parts.
func (rd *runData) subWindows() []interval {
	var ivs []interval
	for k := 1; k < len(rd.snaps); k++ {
		ivs = append(ivs, interval{rd.snaps[k-1], rd.snaps[k]})
	}
	return ivs
}

// sentIn reports whether r was sent inside iv: its scheduled time on an
// open loop, its submit call on a closed loop.
func (rd *runData) sentIn(r *record, iv interval) bool {
	t := r.sub
	if rd.open {
		t = r.ready
	}
	return t >= iv.from.at && t < iv.to.at
}

// driver runs one workload against a built stack.
type driver struct {
	sp     spec
	st     *stack
	pools  []*pool
	tr     *tracer // nil on untraced runs
	epoch  time.Time
	ramp   time.Duration
	window time.Duration
	seed   int64
}

func (d *driver) now() int64 { return int64(time.Since(d.epoch)) }

func (d *driver) sleepUntil(t int64) {
	if dt := time.Duration(t - d.now()); dt > 0 {
		time.Sleep(dt)
	}
}

// pick draws a pool index by mix weight.
func (d *driver) pick(rng *rand.Rand) int {
	n := rng.Intn(d.sp.weightSum())
	for i, p := range d.pools {
		if n < p.weight {
			return i
		}
		n -= p.weight
	}
	return len(d.pools) - 1
}

// issue sends one request and waits for it to resolve, filling r.
func (d *driver) issue(r *record) {
	p := d.pools[r.pool]
	ctx := context.Background()
	if d.tr != nil {
		ctx = context.WithValue(ctx, recordKey{}, r)
	}
	tenant := baseTenant
	if r.storm {
		tenant = stormTenant
	}
	r.sub = d.now()
	ch, err := d.st.submit(ctx, tenant, p.w, p.ins[r.input])
	r.ret = d.now()
	if err != nil {
		r.outcome = classify(err)
		p.give(r.input)
		return
	}
	res := <-ch
	r.recv = d.now()
	switch {
	case res.Err != nil:
		r.outcome = classify(res.Err)
	case !res.M.Equal(p.want[r.input]):
		r.outcome = outWrong
	default:
		r.outcome = outOK
	}
	p.give(r.input)
}

// classify maps a refusal or a failed result to its outcome.
func classify(err error) outcome {
	switch {
	case errors.Is(err, phiadmit.ErrShedOverload), errors.Is(err, phiadmit.ErrShedTenant):
		return outShed
	case errors.Is(err, phiserve.ErrDeadlineExceeded):
		return outExpired
	case errors.Is(err, phiserve.ErrOverloaded):
		return outOverflow
	}
	return outFailed
}

// run drives the load for ramp+window, sampling the stack, and waits for
// every request to resolve.
func (d *driver) run() *runData {
	d.epoch = time.Now()
	if d.tr != nil {
		d.tr.reset(d.epoch)
	}
	rd := &runData{open: d.sp.open()}
	rd.ws = int64(d.ramp)
	rd.we = rd.ws + int64(d.window)

	var meter sync.WaitGroup
	meter.Add(1)
	go func() {
		defer meter.Done()
		prev := rd.ws
		for k := 0; k <= parts; k++ {
			at := rd.ws + int64(k)*int64(d.window)/parts
			if d.tr != nil {
				// Sample the queue gauges every 10ms through the window.
				for t := prev; t < at; t += int64(10 * time.Millisecond) {
					d.sleepUntil(t)
					ls := d.st.stats()
					rd.queueDepth = append(rd.queueDepth, ls.serve.QueueDepth)
					rd.pendingLanes = append(rd.pendingLanes, ls.serve.PendingLanes)
				}
			}
			d.sleepUntil(at)
			rd.snaps = append(rd.snaps, takeSnapshot(d.now(), d.st))
			prev = at
		}
	}()
	if rd.open {
		rd.recs = d.runOpen(rd.ws, rd.we)
	} else {
		rd.recs = d.runClosed(rd.ws, rd.we)
	}
	meter.Wait()
	return rd
}

// runClosed runs sp.clients clients, each sending its next request as soon
// as the previous one resolves, until the window ends.
func (d *driver) runClosed(ws, we int64) []record {
	per := make([][]record, d.sp.clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(d.seed*1000 + int64(c)))
			ready := int64(0)
			for {
				if ready >= we {
					return
				}
				r := record{pool: d.pick(rng), ready: ready}
				r.input = d.pools[r.pool].take()
				d.issue(&r)
				r.inWindow = r.sub >= ws && r.sub < we
				ready = d.now()
				per[c] = append(per[c], r)
			}
		}(c)
	}
	wg.Wait()
	var recs []record
	for _, rs := range per {
		recs = append(recs, rs...)
	}
	return recs
}

// schedule draws the open loop's arrivals: rate*ramp and rate*window
// uniform points over the ramp and the window (a Poisson process
// conditioned on its count, so every seed offers the same load), plus the
// storm tenant's n uniform points in each of its spikes. Each stretch takes
// its kinds from a seeded shuffle of the mix in exact proportions.
func schedule(sp spec, seed int64, ramp, window time.Duration) []record {
	rng := rand.New(rand.NewSource(seed))
	var recs []record
	arrive := func(from, span time.Duration, n int, inWindow, storm bool) {
		kinds := make([]int, 0, n)
		total := sp.weightSum()
		for k, s := range sp.mix {
			for j := 0; j < n*s.weight/total; j++ {
				kinds = append(kinds, k)
			}
		}
		for len(kinds) < n {
			kinds = append(kinds, rng.Intn(len(sp.mix)))
		}
		rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			t := int64(from) + rng.Int63n(int64(span))
			recs = append(recs, record{pool: k, ready: t, inWindow: inWindow, storm: storm})
		}
	}
	arrive(0, ramp, int(sp.rate*ramp.Seconds()+0.5), false, false)
	arrive(ramp, window, int(sp.rate*window.Seconds()+0.5), true, false)
	if s := sp.storm; s.n > 0 && s.at+s.span <= window/parts {
		for k := 0; k < parts; k++ {
			arrive(ramp+time.Duration(k)*window/parts+s.at, s.span, s.n, true, true)
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].ready < recs[j].ready })
	return recs
}

// runOpen sends each scheduled request at its time, from one generator,
// regardless of how many are outstanding.
func (d *driver) runOpen(ws, we int64) []record {
	recs := schedule(d.sp, d.seed, d.ramp, d.window)
	var wg sync.WaitGroup
	for i := range recs {
		r := &recs[i]
		d.sleepUntil(r.ready)
		r.input = d.pools[r.pool].take()
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.issue(r)
		}()
	}
	wg.Wait()
	return recs
}
