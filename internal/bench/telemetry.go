package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phitrace"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/telemetry"
)

// TelemetryOverheadResult reports the host wall-time cost of full
// telemetry (metrics registry, trace recorder and journey recorder) on the
// streaming batch server, measured against the same workload with the
// default metrics-only private registry, no tracer and no journeys.
type TelemetryOverheadResult struct {
	// Ops is the number of requests per run; Trials the number of
	// interleaved base/enabled run pairs.
	Ops, Trials int
	// BaseSeconds and EnabledSeconds are best-of-trials wall times (the
	// minimum filters scheduler noise, which dwarfs the effect measured).
	BaseSeconds, EnabledSeconds float64
	// Overhead is EnabledSeconds/BaseSeconds - 1: the fractional cost of
	// turning full telemetry on. The budget is <2%.
	Overhead float64
}

func (r TelemetryOverheadResult) String() string {
	return fmt.Sprintf("telemetry overhead: %d ops x %d trials, base %.3fs, enabled %.3fs, overhead %+.2f%%",
		r.Ops, r.Trials, r.BaseSeconds, r.EnabledSeconds, 100*r.Overhead)
}

// TelemetryOverhead measures the wall-time cost of enabling full
// telemetry — per-pass slices, phase cycle counters, and per-request
// journeys with tail sampling, each kept journey written to the trace as
// its request span — on the batch server. Both arms serve the identical
// seeded RSA-512 workload; the arms alternate and the best time of each
// wins, so a background scheduling hiccup cannot masquerade as telemetry
// cost.
//
// This is deliberately not a registered experiment: its output is host
// wall time, which is nondeterministic, and the experiment tables are
// required to be byte-identical across runs.
func TelemetryOverhead(ops, trials int, seed int64) (TelemetryOverheadResult, error) {
	if ops < 1 {
		ops = 256
	}
	if trials < 1 {
		trials = 3
	}
	key := keyFor(512)
	work := phiwork.RSAPrivateFor(key)
	rng := rand.New(rand.NewSource(seed))
	cs := make([]bn.Nat, ops)
	for i := range cs {
		c, err := bn.RandomRange(rng, bn.One(), key.N)
		if err != nil {
			return TelemetryOverheadResult{}, err
		}
		cs[i] = c
	}

	run := func(tel *telemetry.Telemetry, rec *phitrace.Recorder) (time.Duration, error) {
		srv, err := phiserve.New(phiserve.Config{
			Machine:      machine(),
			Workers:      4,
			FillDeadline: 500 * time.Microsecond,
			QueueDepth:   8,
			Telemetry:    tel,
			Journeys:     rec,
		})
		if err != nil {
			return 0, err
		}
		srv.Start(context.Background())
		start := time.Now()
		var wg sync.WaitGroup
		for _, c := range cs {
			resp, err := srv.SubmitWork(context.Background(), work, phiwork.Input{A: c}, phiserve.SubmitOpts{})
			if err != nil {
				srv.Close()
				return 0, err
			}
			wg.Add(1)
			go func(ch <-chan phiserve.Result) {
				defer wg.Done()
				<-ch
			}(resp)
		}
		wg.Wait()
		elapsed := time.Since(start)
		srv.Close()
		return elapsed, nil
	}

	res := TelemetryOverheadResult{Ops: ops, Trials: trials}
	best := func(cur float64, d time.Duration) float64 {
		if cur == 0 || d.Seconds() < cur {
			return d.Seconds()
		}
		return cur
	}
	for t := 0; t < trials; t++ {
		dBase, err := run(nil, nil) // server builds its metrics-only private registry
		if err != nil {
			return res, err
		}
		// The enabled arm carries the full stack: registry, tracer, and a
		// journey recorder with tail sampling active.
		tel := telemetry.NewWithTrace(0)
		dFull, err := run(tel, phitrace.New(phitrace.Config{Telemetry: tel, SampleN: 16}))
		if err != nil {
			return res, err
		}
		res.BaseSeconds = best(res.BaseSeconds, dBase)
		res.EnabledSeconds = best(res.EnabledSeconds, dFull)
	}
	res.Overhead = res.EnabledSeconds/res.BaseSeconds - 1
	return res, nil
}
