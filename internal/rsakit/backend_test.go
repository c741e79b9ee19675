package rsakit

import (
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"testing"

	"phiopenssl/internal/baseline"
	"phiopenssl/internal/bn"
	"phiopenssl/internal/faultsim"
	"phiopenssl/internal/vbatch"
	"phiopenssl/internal/vpu"
)

// testKey2048 is built lazily: only the backend benchmarks and the 2048-bit
// differential pay for its generation.
var testKey2048 = sync.OnceValue(func() *PrivateKey { return mustGenerate(2048) })

// encryptLanes builds a full batch of ciphertexts with known plaintexts.
func encryptLanes(t testing.TB, key *PrivateKey, seed int64) (cs, want []bn.Nat) {
	t.Helper()
	eng := baseline.NewOpenSSL()
	rng := mrand.New(mrand.NewSource(seed))
	cs = make([]bn.Nat, BatchSize)
	want = make([]bn.Nat, BatchSize)
	for l := range cs {
		m, err := bn.RandomRange(rng, bn.One(), key.N)
		if err != nil {
			t.Fatal(err)
		}
		want[l] = m
		cs[l] = eng.ModExp(m, key.E, key.N)
	}
	return cs, want
}

// TestPrivateOpBatchBackendDifferential: the full verified CRT private
// operation — both exponentiations, recombination and the Bellcore check —
// must be bit-identical across backends in plaintexts, total counts and
// per-phase attribution.
func TestPrivateOpBatchBackendDifferential(t *testing.T) {
	for _, key := range []*PrivateKey{testKey512, testKey1024, testKey2048()} {
		cs, want := encryptLanes(t, key, 500)
		sim, direct := vpu.New(), vpu.NewDirect()
		simOut, simErrs, err := PrivateOpBatchVerifiedN(sim, key, cs)
		if err != nil {
			t.Fatal(err)
		}
		dirOut, dirErrs, err := PrivateOpBatchVerifiedN(direct, key, cs)
		if err != nil {
			t.Fatal(err)
		}
		for l := range simOut {
			if simErrs[l] != nil || dirErrs[l] != nil {
				t.Fatalf("%d-bit lane %d: unexpected fault (sim %v, direct %v)",
					key.N.BitLen(), l, simErrs[l], dirErrs[l])
			}
			if !simOut[l].Equal(want[l]) || !dirOut[l].Equal(want[l]) {
				t.Fatalf("%d-bit lane %d: wrong plaintext", key.N.BitLen(), l)
			}
		}
		if sc, dc := sim.Counts(), direct.Counts(); sc != dc {
			t.Fatalf("%d-bit: counts diverge:\n sim    %v\n direct %v", key.N.BitLen(), sc, dc)
		}
		sp, dp := sim.PhaseCounts(), direct.PhaseCounts()
		for p := range sp {
			if sp[p] != dp[p] {
				t.Fatalf("%d-bit: phase %d diverges:\n sim    %v\n direct %v",
					key.N.BitLen(), p, sp[p], dp[p])
			}
		}
	}
}

// passCountsGolden are the instruction counts of one CRT-only batch pass
// and of one Bellcore-verified pass on the test keys, recorded when every
// shared exponent ran fixed 5-bit windows. The counts depend on the key
// (its exponent digits) but not on the inputs or the fill.
var passCountsGolden = map[int]struct{ crt, verified5 vpu.Counts }{
	512: {
		crt:       vpu.Counts{547693, 178728, 36, 256, 6093},
		verified5: vpu.Counts{702190, 229688, 70, 768, 6926},
	},
	1024: {
		crt:       vpu.Counts{4029534, 1329120, 68, 1024, 21726},
		verified5: vpu.Counts{4639535, 1531392, 134, 2048, 23343},
	},
	2048: {
		crt:       vpu.Counts{31047806, 10295232, 132, 2048, 82302},
		verified5: vpu.Counts{33471983, 11101184, 262, 4096, 85487},
	},
}

// TestPassCountsGolden pins what the exponent-sized shared window moved:
// the CRT exponents (240 bits or more) keep 5-bit windows, so the CRT-only
// pass keeps its golden counts, while the Bellcore check's m^65537 drops
// from 49 to 20 Montgomery-multiply events, so the verified pass charges
// exactly 29 events less than under 5-bit windows — and exactly one
// public pass more than the CRT-only pass.
func TestPassCountsGolden(t *testing.T) {
	for _, key := range []*PrivateKey{testKey512, testKey1024, testKey2048()} {
		bits := key.N.BitLen()
		golden := passCountsGolden[bits]
		cs, _ := encryptLanes(t, key, 505)
		crt := passCounts(t, func(be vpu.Backend) error {
			_, err := PrivateOpBatchN(be, key, cs[:1])
			return err
		})
		verified := passCounts(t, func(be vpu.Backend) error {
			_, _, err := PrivateOpBatchVerifiedN(be, key, cs[:1])
			return err
		})
		public := passCounts(t, func(be vpu.Backend) error {
			_, err := PublicOpBatchN(be, &key.PublicKey, cs[:1])
			return err
		})
		if crt != golden.crt {
			t.Errorf("%d-bit CRT-only pass: %v, golden %v", bits, crt, golden.crt)
		}
		mul := mulEventCounts(t, key.N)
		want := golden.verified5
		for i := range want {
			want[i] -= 29 * mul[i]
		}
		if verified != want {
			t.Errorf("%d-bit verified pass: %v, want %v (golden less 29 multiplies)", bits, verified, want)
		}
		if sum := crt.Add(public); verified != sum {
			t.Errorf("%d-bit verified pass %v != CRT-only + public pass %v", bits, verified, sum)
		}
	}
}

// passCounts returns the counts one pass charges on a fresh direct
// backend (equal to the sim's, per the differentials).
func passCounts(t *testing.T, pass func(vpu.Backend) error) vpu.Counts {
	t.Helper()
	be := vpu.NewDirect()
	if err := pass(be); err != nil {
		t.Fatal(err)
	}
	return be.Counts()
}

// mulEventCounts returns the charge of one Montgomery-multiply event mod
// n: the multiply and reduce phases of one MontMul call.
func mulEventCounts(t *testing.T, n bn.Nat) vpu.Counts {
	t.Helper()
	be := vpu.NewDirect()
	k, err := vbatch.NewKernels(n, be)
	if err != nil {
		t.Fatal(err)
	}
	k.MontMul([]bn.Nat{bn.One()}, []bn.Nat{bn.One()})
	ph := be.PhaseCounts()
	return ph[vbatch.PhaseMul].Add(ph[vbatch.PhaseReduce])
}

// TestPrivateOpBatchVerifiedFaultsBothBackends: ErrFaultDetected must
// demonstrably fire on BOTH backends, at full fill and at fill 3, and
// neither may ever release a corrupted plaintext. The injection rate is
// derived per backend from a counting pass (the two backends expose vastly
// different numbers of corruption points per pass); the count does not
// depend on the fill (TestCorruptionPointsIndependentOfFill), so one rate
// serves both legs. At fill 3 most flips land on dead lanes and are
// dropped, as their results would have been.
func TestPrivateOpBatchVerifiedFaultsBothBackends(t *testing.T) {
	key := testKey512
	cs, want := encryptLanes(t, key, 501)
	for _, kind := range []vpu.BackendKind{vpu.BackendSim, vpu.BackendDirect} {
		t.Run(kind.String(), func(t *testing.T) {
			// Target ~3 expected flips per full pass.
			points := countCorruptionPoints(t, kind, key, cs)
			rate := faultsim.PerInstrRate(0.2, uint64(points))
			t.Logf("%d corruption points/pass, flip rate %.3g", points, rate)
			for _, fill := range []int{BatchSize, 3} {
				t.Run(fmt.Sprintf("fill=%d", fill), func(t *testing.T) {
					faultTrials(t, kind, key, cs[:fill], want[:fill], rate)
				})
			}
		})
	}
}

// faultTrials runs twenty seeded fault-injected verified passes over cs
// and requires at least one detected fault, at least one clean lane, and
// no corrupted plaintext escaping.
func faultTrials(t *testing.T, kind vpu.BackendKind, key *PrivateKey, cs, want []bn.Nat, rate float64) {
	t.Helper()
	faulted, clean := 0, 0
	for trial := 0; trial < 20; trial++ {
		be := vpu.NewBackend(kind)
		be.AttachFaults(faultsim.New(faultsim.Config{
			Seed:         int64(2000 + trial),
			LaneFlipRate: rate,
		}))
		out, laneErrs, err := PrivateOpBatchVerifiedN(be, key, cs)
		if err != nil {
			t.Fatalf("trial %d: batch error %v", trial, err)
		}
		for l := range out {
			if laneErrs[l] != nil {
				if !errors.Is(laneErrs[l], ErrFaultDetected) {
					t.Fatalf("trial %d lane %d: error %v does not wrap ErrFaultDetected",
						trial, l, laneErrs[l])
				}
				if !out[l].IsZero() {
					t.Fatalf("trial %d lane %d: fault-detected lane released a plaintext",
						trial, l)
				}
				faulted++
				continue
			}
			if !out[l].Equal(want[l]) {
				t.Fatalf("trial %d lane %d: CORRUPTED PLAINTEXT ESCAPED VERIFICATION",
					trial, l)
			}
			clean++
		}
	}
	if faulted == 0 {
		t.Fatalf("no ErrFaultDetected fired on the %s backend at fill %d", kind, len(cs))
	}
	if clean == 0 {
		t.Fatal("no lane survived; rate too high for the test to distinguish")
	}
	t.Logf("lanes: %d clean, %d fault-detected", clean, faulted)
}

// countCorruptionPoints runs one verified pass over cs on a fresh backend
// of the given kind with a counting Corruptor attached.
func countCorruptionPoints(t *testing.T, kind vpu.BackendKind, key *PrivateKey, cs []bn.Nat) int64 {
	t.Helper()
	ctr := &countingCorruptor{}
	be := vpu.NewBackend(kind)
	be.AttachFaults(ctr)
	if _, _, err := PrivateOpBatchVerifiedN(be, key, cs); err != nil {
		t.Fatal(err)
	}
	return ctr.n
}

// TestCorruptionPointsIndependentOfFill: the injector must see the same
// corruption points for a 1-lane, a 3-lane and a 16-lane pass on both
// backends — the direct backend hands it one full vector per limb per
// event, dead lanes read as zero — so its RNG draws and the per-pass rate
// derivations (faultsim.PerInstrRate) do not depend on the fill.
func TestCorruptionPointsIndependentOfFill(t *testing.T) {
	key := testKey512
	cs, _ := encryptLanes(t, key, 503)
	for _, kind := range []vpu.BackendKind{vpu.BackendSim, vpu.BackendDirect} {
		full := countCorruptionPoints(t, kind, key, cs)
		for _, fill := range []int{1, 3} {
			if n := countCorruptionPoints(t, kind, key, cs[:fill]); n != full {
				t.Fatalf("%s: %d corruption points at fill %d, %d at full fill", kind, n, fill, full)
			}
		}
	}
}

// countingCorruptor counts corruption points without corrupting.
type countingCorruptor struct{ n int64 }

func (c *countingCorruptor) CorruptVec(*vpu.Vec) { c.n++ }

// benchFills are the live-lane counts the batch benchmarks sweep.
var benchFills = []int{1, 4, BatchSize}

// benchBatch times pass over the first fill inputs on each backend and
// fill: host wall time per pass. Both backends charge identical simulated
// cycles at every fill (asserted by the differential tests); the sim's
// wall time stays flat across fills while the direct backend's scales
// with the live lanes. Results are pinned in BENCH_backend.json.
func benchBatch(b *testing.B, inputs []bn.Nat, pass func(be vpu.Backend, in []bn.Nat) error) {
	for _, kind := range []vpu.BackendKind{vpu.BackendSim, vpu.BackendDirect} {
		for _, fill := range benchFills {
			b.Run(fmt.Sprintf("%s/fill=%d", kind, fill), func(b *testing.B) {
				be := vpu.NewBackend(kind)
				// Warm per-width calibration/context caches outside the timer.
				if err := pass(be, inputs[:fill]); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					be.Reset()
					if err := pass(be, inputs[:fill]); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(fill), "lanes/op")
			})
		}
	}
}

// BenchmarkPrivateOpBatch measures the RSA-2048 verified CRT batch (both
// exponentiations, recombination and the Bellcore check) at each fill.
func BenchmarkPrivateOpBatch(b *testing.B) {
	key := testKey2048()
	cs, _ := encryptLanes(b, key, 502)
	benchBatch(b, cs, func(be vpu.Backend, in []bn.Nat) error {
		_, _, err := PrivateOpBatchVerifiedN(be, key, in)
		return err
	})
}

// BenchmarkPublicOpBatch is the public-op twin: RSA-2048 m^65537 at each
// fill.
func BenchmarkPublicOpBatch(b *testing.B) {
	key := testKey2048()
	ms, _ := encryptLanes(b, key, 504)
	benchBatch(b, ms, func(be vpu.Backend, in []bn.Nat) error {
		_, err := PublicOpBatchN(be, &key.PublicKey, in)
		return err
	})
}
