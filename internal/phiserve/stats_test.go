package phiserve

import (
	"math"
	"testing"

	"phiopenssl/internal/knc"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/telemetry"
)

// TestStatsSnapshotZeroCompleted pins the division edge cases: a snapshot
// with nothing completed — taken before the first resolve, or after a run
// where every request failed — reports 0 for every per-op ratio, never
// NaN or Inf.
func TestStatsSnapshotZeroCompleted(t *testing.T) {
	a := newStatsAcc(telemetry.NewRegistry(), nil)
	check := func(st Stats) {
		t.Helper()
		for _, v := range []float64{st.CyclesPerOp, st.SimThroughput, st.MeanSimLatency} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("ratio is NaN/Inf with Completed==0: %+v", st)
			}
			if v != 0 {
				t.Fatalf("ratio nonzero with Completed==0: %+v", st)
			}
		}
	}

	// Fresh accumulator: nothing happened at all.
	check(a.snapshot(Config{}, breakerClosed, 0))

	// Work happened but nothing completed: submissions all failed, and a
	// pass executed whose lanes were all answered elsewhere.
	a.submitted.Add(3)
	a.failed.Add(3)
	a.recordBatch(phiwork.KindRSAPrivate, 3, 5000, knc.PhaseCycles{})
	st := a.snapshot(Config{}, breakerClosed, 0)
	check(st)
	if st.Batches != 1 || st.MeanFill != 3 {
		t.Fatalf("batch accounting broken: %+v", st)
	}
	if st.FillHist[2] != 1 {
		t.Fatalf("fill 3 not reconstructed from the histogram: %v", st.FillHist)
	}
}

// TestServerStatsBeforeTraffic: a freshly built server hands out a sane
// all-zero snapshot (the metrics endpoint can be scraped before the first
// request arrives).
func TestServerStatsBeforeTraffic(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Submitted != 0 || st.Completed != 0 || st.Batches != 0 {
		t.Fatalf("fresh server snapshot: %+v", st)
	}
	if math.IsNaN(st.CyclesPerOp) || math.IsNaN(st.MeanSimLatency) || math.IsNaN(st.SimThroughput) {
		t.Fatalf("fresh server snapshot has NaN ratios: %+v", st)
	}
	if st.BreakerState != "closed" {
		t.Fatalf("fresh server breaker state %q", st.BreakerState)
	}
}
