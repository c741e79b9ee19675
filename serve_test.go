package phiopenssl_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"phiopenssl"
	"phiopenssl/internal/bench"
)

func TestFacadeRSAPrivateBatchN(t *testing.T) {
	key := bench.FixedKey(512)
	eng := phiopenssl.NewEngine(phiopenssl.EngineOpenSSL)
	msgs := make([]phiopenssl.Nat, 5)
	cts := make([]phiopenssl.Nat, 5)
	for i := range msgs {
		msgs[i] = phiopenssl.NatFromUint64(uint64(2000 + i))
		c, err := phiopenssl.RSAPublic(eng, &key.PublicKey, msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = c
	}
	res, laneErrs, cycles, err := phiopenssl.RSAPrivateBatchN(key, cts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 || len(laneErrs) != 5 || cycles <= 0 {
		t.Fatalf("got %d results, %d lane errors, %.0f cycles", len(res), len(laneErrs), cycles)
	}
	for i := range res {
		if laneErrs[i] != nil {
			t.Fatalf("lane %d error on clean pass: %v", i, laneErrs[i])
		}
		if !res[i].Equal(msgs[i]) {
			t.Fatalf("lane %d mismatch", i)
		}
	}

	// The full-batch wrapper must charge the same pass as sixteen live
	// lanes through the partial path.
	var full [phiopenssl.RSABatchSize]phiopenssl.Nat
	for i := range full {
		c, err := phiopenssl.RSAPublic(eng, &key.PublicKey, phiopenssl.NatFromUint64(uint64(3000+i)))
		if err != nil {
			t.Fatal(err)
		}
		full[i] = c
	}
	_, _, viaWrapper, err := phiopenssl.RSAPrivateBatch(key, &full)
	if err != nil {
		t.Fatal(err)
	}
	_, _, viaN, err := phiopenssl.RSAPrivateBatchN(key, full[:])
	if err != nil {
		t.Fatal(err)
	}
	if viaWrapper != viaN {
		t.Fatalf("wrapper charged %.0f cycles, partial path %.0f", viaWrapper, viaN)
	}
}

func TestFacadeBatchServer(t *testing.T) {
	key := bench.FixedKey(512)
	eng := phiopenssl.NewEngine(phiopenssl.EngineOpenSSL)

	srv, err := phiopenssl.NewBatchServer(phiopenssl.BatchServerConfig{
		Workers:      2,
		FillDeadline: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	work := phiopenssl.RSAPrivateWorkload(key)
	one := phiopenssl.WorkloadInput{A: phiopenssl.NatFromUint64(1)}
	if _, err := srv.SubmitWork(context.Background(), work, one, phiopenssl.SubmitOpts{}); !errors.Is(err, phiopenssl.ErrServerNotStarted) {
		t.Fatalf("SubmitWork before Start: %v", err)
	}
	srv.Start(context.Background())

	const n = 20
	msgs := make([]phiopenssl.Nat, n)
	resps := make([]<-chan phiopenssl.BatchResult, n)
	for i := range msgs {
		msgs[i] = phiopenssl.NatFromUint64(uint64(5000 + i))
		c, err := phiopenssl.RSAPublic(eng, &key.PublicKey, msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		ch, err := srv.SubmitWork(context.Background(), work, phiopenssl.WorkloadInput{A: c}, phiopenssl.SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		resps[i] = ch
	}
	for i, ch := range resps {
		res := <-ch
		if res.Err != nil || !res.M.Equal(msgs[i]) {
			t.Fatalf("request %d: %+v", i, res)
		}
	}
	srv.Close()
	if _, err := srv.SubmitWork(context.Background(), work, one, phiopenssl.SubmitOpts{}); !errors.Is(err, phiopenssl.ErrServerClosed) {
		t.Fatalf("SubmitWork after Close: %v", err)
	}

	st := srv.Stats()
	if st.Submitted != n || st.Completed != n || st.Failed != 0 || st.Batches < 2 {
		t.Fatalf("stats: %+v", st)
	}
	if st.CyclesPerOp <= 0 || st.SimThroughput <= 0 {
		t.Fatalf("no simulated costs reported: %+v", st)
	}
	if st.BreakerState != "closed" || st.FaultsDetected != 0 || st.FallbackOps != 0 {
		t.Fatalf("clean run shows fault activity: %+v", st)
	}
}

// TestFacadeBatchServerResilience drives the resilience surface through
// the public facade: a scripted transient kernel failure must be retried
// and healed with correct plaintexts and visible counters.
func TestFacadeBatchServerResilience(t *testing.T) {
	key := bench.FixedKey(512)
	eng := phiopenssl.NewEngine(phiopenssl.EngineOpenSSL)

	srv, err := phiopenssl.NewBatchServer(phiopenssl.BatchServerConfig{
		Workers:      1,
		FillDeadline: 5 * time.Millisecond,
		Resilience: phiopenssl.BatchServerResilience{
			MaxRetries: 2,
			Faults: &phiopenssl.FaultInjection{
				Seed:   2,
				Script: []phiopenssl.FaultPassOutcome{phiopenssl.FaultPassKernelFail},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(context.Background())
	work := phiopenssl.RSAPrivateWorkload(key)

	const n = 8
	msgs := make([]phiopenssl.Nat, n)
	resps := make([]<-chan phiopenssl.BatchResult, n)
	for i := range msgs {
		msgs[i] = phiopenssl.NatFromUint64(uint64(7000 + i))
		c, err := phiopenssl.RSAPublic(eng, &key.PublicKey, msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		ch, err := srv.SubmitWork(context.Background(), work, phiopenssl.WorkloadInput{A: c}, phiopenssl.SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		resps[i] = ch
	}
	sawRetry := false
	for i, ch := range resps {
		res := <-ch
		if res.Err != nil || !res.M.Equal(msgs[i]) {
			t.Fatalf("request %d: %+v", i, res)
		}
		if res.Attempts > 0 {
			sawRetry = true
		}
	}
	srv.Close()
	if !sawRetry {
		t.Fatal("scripted kernel failure left no Attempts trace on any result")
	}
	st := srv.Stats()
	if st.KernelFaults != 1 || st.Retries == 0 {
		t.Fatalf("kernel-fault accounting: %+v", st)
	}
	if st.Completed != n || st.Failed != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestFacadeBatchBackendsAgree: the explicit-backend batch entry point
// must return identical plaintexts and identical cycle figures on both
// backends (the calibration contract surfaced at the facade).
func TestFacadeBatchBackendsAgree(t *testing.T) {
	key := bench.FixedKey(512)
	eng := phiopenssl.NewEngine(phiopenssl.EngineOpenSSL)
	msgs := make([]phiopenssl.Nat, phiopenssl.RSABatchSize)
	cts := make([]phiopenssl.Nat, phiopenssl.RSABatchSize)
	for i := range msgs {
		msgs[i] = phiopenssl.NatFromUint64(uint64(7000 + i))
		c, err := phiopenssl.RSAPublic(eng, &key.PublicKey, msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = c
	}
	simRes, _, simCycles, err := phiopenssl.RSAPrivateBatchOn(phiopenssl.BackendSim, key, cts)
	if err != nil {
		t.Fatal(err)
	}
	dirRes, _, dirCycles, err := phiopenssl.RSAPrivateBatchOn(phiopenssl.BackendDirect, key, cts)
	if err != nil {
		t.Fatal(err)
	}
	if simCycles != dirCycles {
		t.Fatalf("cycles diverge: sim %.0f direct %.0f", simCycles, dirCycles)
	}
	for i := range simRes {
		if !simRes[i].Equal(msgs[i]) || !dirRes[i].Equal(msgs[i]) {
			t.Fatalf("lane %d mismatch across backends", i)
		}
	}

	if _, ok := phiopenssl.ParseBackend("direct"); !ok {
		t.Fatal(`ParseBackend("direct") rejected`)
	}
	if _, ok := phiopenssl.ParseBackend("bogus"); ok {
		t.Fatal(`ParseBackend("bogus") accepted`)
	}
}
