package main

import (
	"testing"
	"time"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/phiwork"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return v
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // samples 991..1000 lie beyond
		{999, 0.99, 990, false}, // only 9 beyond
		{1100, 0.99, 1089, true},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1, 0.5, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as supported")
	}
}

func TestSLOArithmetic(t *testing.T) {
	ms := int64(time.Millisecond)
	rd := &runData{open: true, ws: 0, we: 1000 * ms,
		snaps: []snapshot{{at: 0}, {at: 1000 * ms}}}
	add := func(ready, recv int64, o outcome, in bool) {
		sub := ready + ms
		rd.recs = append(rd.recs, record{ready: ready, sub: sub, ret: sub, recv: recv, outcome: o, inWindow: in})
	}
	add(0, 100*ms, outOK, true)     // on time
	add(10*ms, 210*ms, outOK, true) // exactly at the 200ms limit: on time
	add(20*ms, 400*ms, outOK, true) // late (from the scheduled time)
	add(30*ms, 0, outShed, true)    // refused at the door
	add(40*ms, 90*ms, outExpired, true)
	add(50*ms, 60*ms, outWrong, true)
	add(60*ms, 70*ms, outFailed, true)
	add(-50*ms, 100*ms, outOK, false) // sent in the ramp: not attempted
	add(900*ms, 1100*ms, outOK, true) // completes after the window
	c := tally(rd, 200*time.Millisecond)
	want := counts{attempted: 8, succeeded: 4, refused: 1, failed: 3, wrong: 1,
		shed: 1, expired: 1, errored: 1, okInLimit: 3}
	if c != want {
		t.Fatalf("tally = %+v\nwant    %+v", c, want)
	}
	if got := c.sloMissFrac(); got != 5.0/8 {
		t.Errorf("slo_miss_frac = %v, want 5/8", got)
	}
	// Completions inside the window include the ramp request, not the
	// straggler; goodput keeps only those within the limit.
	ok, inLimit := completedIn(rd, rd.whole(), 200*time.Millisecond)
	if ok != 4 || inLimit != 3 {
		t.Errorf("completedIn = %d, %d; want 4, 3", ok, inLimit)
	}
	if m := verdict(c, nil); m.Correct || m.Failed != 2 || m.Attempted != 8 {
		t.Errorf("verdict = %+v; want incorrect with 2 failed of 8", m)
	}
}

// testPools builds one rsa-priv pool whose inputs are the small integers
// 1..n, indexed the way makePools indexes them.
func testPools(n int) []*pool {
	p := &pool{kind: phiwork.KindRSAPrivate, weight: 1, index: map[string]int{}}
	for i := 0; i < n; i++ {
		in := phiwork.Input{A: bn.FromUint64(uint64(i + 1))}
		p.ins = append(p.ins, in)
		p.index[inputKey(in)] = i
	}
	return []*pool{p}
}

func TestMatchLanes(t *testing.T) {
	pools := testPools(3)
	ins := pools[0].ins
	req := func(input int, sub, recv int64) record {
		return record{input: input, sub: sub, ret: sub + 1, bsub: sub, bret: sub + 1, recv: recv, outcome: outOK}
	}
	pass := func(start, end int64, lanes ...int) span {
		s := span{kind: phiwork.KindRSAPrivate, start: start, end: end}
		for _, l := range lanes {
			s.ins = append(s.ins, ins[l])
		}
		return s
	}
	// Input 0 is reused: its second request must match the second pass.
	recs := []record{req(0, 0, 50), req(1, 5, 50), req(0, 60, 120), {input: 2, sub: 61, outcome: outShed}}
	spans := []span{pass(10, 40, 0, 1), pass(70, 110, 0)}
	match, err := matchLanes(recs, spans, pools)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 0, 1, -1}; !equalInts(match, want) {
		t.Fatalf("match = %v, want %v", match, want)
	}

	if _, err := matchLanes(recs[:3], spans[:1], pools); err == nil {
		t.Error("a completed request with no pass was accepted")
	}
	extra := append(append([]span(nil), spans...), pass(80, 100, 0))
	if _, err := matchLanes(recs, extra, pools); err == nil {
		t.Error("a request served by two passes was accepted")
	}
	orphan := append(append([]span(nil), spans...), pass(200, 210, 2))
	if _, err := matchLanes(recs, orphan, pools); err == nil {
		t.Error("a pass lane that served no request was accepted")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSplitStagesSumToLatency(t *testing.T) {
	r := record{ready: 100, sub: 130, bsub: 140, bret: 170, ret: 180, recv: 1000}
	s := span{start: 200, end: 900}
	st, err := splitStages(&r, &s, true)
	if err != nil {
		t.Fatal(err)
	}
	want := stages{gen: 30, door: 20, submit: 30, wait: 20, pass: 700, deliver: 100}
	if st != want || st.sum() != r.latency(true) {
		t.Fatalf("stages = %+v (sum %d), want %+v (latency %d)", st, st.sum(), want, r.latency(true))
	}
	if st, _ := splitStages(&r, &s, false); st.gen != 0 || st.sum() != r.latency(false) {
		t.Errorf("closed-loop stages %+v do not sum to %d", st, r.latency(false))
	}
	early := span{start: 120, end: 900} // began before the request was submitted
	if _, err := splitStages(&r, &early, true); err == nil {
		t.Error("a pass outside the request's life passed the check")
	}
	unstamped := r
	unstamped.bsub, unstamped.bret = 0, 0
	if _, err := splitStages(&unstamped, &s, true); err == nil {
		t.Error("a request without a backend call passed the check")
	}
}

func TestScheduleStormSpikes(t *testing.T) {
	sp, err := specByName("blend1024-storm")
	if err != nil {
		t.Fatal(err)
	}
	ramp, window := time.Second, 30*time.Second
	recs := schedule(sp, 5, ramp, window)
	perPart := make([]int, parts)
	kinds := map[int]int{}
	base := 0
	for i, r := range recs {
		if i > 0 && r.ready < recs[i-1].ready {
			t.Fatal("arrivals out of order")
		}
		if !r.storm {
			if r.inWindow {
				base++
			}
			continue
		}
		kinds[r.pool]++
		off := time.Duration(r.ready) - ramp
		k := int(off / (window / parts))
		if !r.inWindow || k >= parts || off-time.Duration(k)*window/parts < sp.storm.at ||
			off-time.Duration(k)*window/parts >= sp.storm.at+sp.storm.span {
			t.Fatalf("storm arrival at %v lies outside every spike", off)
		}
		perPart[k]++
	}
	if want := int(sp.rate * window.Seconds()); base != want {
		t.Errorf("%d base arrivals in the window, want %d", base, want)
	}
	for k, n := range perPart {
		if n != sp.storm.n {
			t.Errorf("part %d holds %d storm arrivals, want %d", k, n, sp.storm.n)
		}
	}
	// Each spike's kinds are an exact-proportion shuffle, up to rounding.
	for i, s := range sp.mix {
		if lo := parts * (sp.storm.n * s.weight / sp.weightSum()); kinds[i] < lo {
			t.Errorf("%s: %d storm arrivals, want at least %d", s.kind, kinds[i], lo)
		}
	}
}

// tinyClosed is a 512-bit rsa-priv closed loop small enough for a test.
var tinyClosed = spec{name: "tiny-closed", bits: 512,
	mix: []share{{phiwork.KindRSAPrivate, 1}}, clients: 4, limit: time.Second}

func TestWrongOutputFailsTheRun(t *testing.T) {
	b, err := newBencher(tinyClosed, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	p := b.pools[0]
	p.want[3] = p.want[3].Add(bn.One())
	rd := b.drive(0, 300*time.Millisecond)
	b.close()
	c := tally(rd, tinyClosed.limit)
	if c.attempted == 0 {
		t.Fatal("tiny run attempted nothing")
	}
	if c.wrong == 0 {
		t.Fatal("a corrupted reference went unnoticed")
	}
	if v := verdict(c, nil); v.Correct || v.Failed != c.wrong {
		t.Errorf("verdict = %+v; want incorrect with %d failed", v, c.wrong)
	}
	if _, err := endToEnd(tinyClosed, b.pools, rd, 1); err == nil {
		t.Error("a run too short for its p99 produced end-to-end metrics")
	}
}

// TestTracedBlendMatchesEveryLane drives a short traced blend through the
// admission door and the fleet and requires the lane matching and the
// stage-sum check to hold for every request.
func TestTracedBlendMatchesEveryLane(t *testing.T) {
	sp := spec{name: "tiny-blend", bits: 1024, mix: blend, rate: 50, cards: 2, limit: 500 * time.Millisecond}
	b, err := newBencher(sp, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	rd := b.drive(200*time.Millisecond, time.Second)
	b.close()
	// A short window may see no pass of some kind start; stand-in probe
	// times keep the kernel metrics defined.
	probe := map[phiwork.Kind]float64{}
	for _, k := range phiwork.Kinds() {
		probe[k] = 1
	}
	m, st, err := perLayer(sp, b.pools, rd, b.tr.spans, probe, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c := tally(rd, sp.limit); c.wrong != 0 || len(st) != c.succeeded {
		t.Fatalf("%d stage records for %+v", len(st), c)
	}
	if d := m["phiserve.degraded_ops"].Value; d != 0 {
		t.Errorf("degraded ops %v with faults off", d)
	}
}
