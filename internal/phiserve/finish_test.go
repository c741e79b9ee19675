package phiserve

import (
	"context"
	"errors"
	"testing"
	"time"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/faultsim"
	"phiopenssl/internal/phiwork"
)

// TestStatsCountedBeforeDelivery: finish does all of a request's
// accounting before it sends the result, and a pass is recorded before
// its lanes are delivered, so Stats read the moment a result arrives
// already counts it. Each leg reads Stats on every receipt: batch results
// (completed lanes, the passes that served them, their sim latency),
// scalar-fallback results (fallback ops and cycles) and lanes that
// expired at the batch-seal checkpoint.
func TestStatsCountedBeforeDelivery(t *testing.T) {
	cs, want, _ := perOpAnswers(t, testKey, BatchSize, 204)
	// within reports got >= want up to float summation order.
	within := func(got, want float64) bool { return got >= want*(1-1e-9) }

	t.Run("batch", func(t *testing.T) {
		s := startServer(t, Config{Workers: 1, FillDeadline: 2 * time.Millisecond})
		resps := submitAll(t, s, cs, SubmitOpts{})
		var served int64
		var simLat float64
		for i, ch := range resps {
			res := <-ch
			st := s.Stats()
			if res.Err != nil || !res.M.Equal(want[i]) || res.Fallback {
				t.Fatalf("request %d: %+v", i, res)
			}
			served++
			simLat += res.SimLatency
			var passLanes int64
			for f, n := range st.FillHist {
				passLanes += int64(f+1) * n
			}
			if st.Completed < served || passLanes < served {
				t.Fatalf("result %d arrived before its accounting: completed %d, lanes in recorded passes %d",
					served, st.Completed, passLanes)
			}
			if !within(st.MeanSimLatency*float64(st.Completed), simLat) {
				t.Fatalf("result %d: sim latency sum %g < delivered %g",
					served, st.MeanSimLatency*float64(st.Completed), simLat)
			}
		}
	})

	t.Run("fallback", func(t *testing.T) {
		// Every pass kernel-fails and no retry is allowed: each lane is
		// healed by the scalar path.
		script := make([]faultsim.PassOutcome, BatchSize)
		for i := range script {
			script[i] = faultsim.PassKernelFail
		}
		s := startServer(t, Config{
			Workers:      1,
			FillDeadline: 2 * time.Millisecond,
			Resilience: Resilience{
				MaxRetries: -1,
				Faults:     &faultsim.Config{Seed: 6, Script: script},
			},
		})
		resps := submitAll(t, s, cs, SubmitOpts{})
		var ops int64
		var cycles float64
		for i, ch := range resps {
			res := <-ch
			st := s.Stats()
			if res.Err != nil || !res.M.Equal(want[i]) || !res.Fallback {
				t.Fatalf("request %d: %+v", i, res)
			}
			ops++
			cycles += res.BatchCycles
			if st.FallbackOps < ops || !within(st.FallbackCycles, cycles) {
				t.Fatalf("fallback result %d arrived before its accounting: FallbackOps %d, FallbackCycles %g < %g",
					ops, st.FallbackOps, st.FallbackCycles, cycles)
			}
		}
	})

	t.Run("expired", func(t *testing.T) {
		// The lanes' deadline passes long before the fill deadline seals
		// their batch, so the seal checkpoint resolves them.
		s := startServer(t, Config{Workers: 1, FillDeadline: 200 * time.Millisecond})
		resps := submitAll(t, s, cs[:8], SubmitOpts{Deadline: time.Now().Add(20 * time.Millisecond)})
		var expired int64
		for i, ch := range resps {
			res := <-ch
			st := s.Stats()
			if !errors.Is(res.Err, ErrDeadlineExceeded) {
				t.Fatalf("request %d: %+v, want ErrDeadlineExceeded", i, res)
			}
			expired++
			if st.ExpiredLanes < expired || st.Failed < expired {
				t.Fatalf("expired result %d arrived before its accounting: ExpiredLanes %d, Failed %d",
					expired, st.ExpiredLanes, st.Failed)
			}
		}
	})
}

// startServer builds and starts a server that the test closes.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	t.Cleanup(s.Close)
	return s
}

// submitAll submits one rsa-priv request per ciphertext.
func submitAll(t *testing.T, s *Server, cs []bn.Nat, opts SubmitOpts) []<-chan Result {
	t.Helper()
	resps := make([]<-chan Result, len(cs))
	for i, c := range cs {
		ch, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: c}, opts)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		resps[i] = ch
	}
	return resps
}
