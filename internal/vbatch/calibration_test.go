package vbatch

import (
	"math/rand"
	"sync"
	"testing"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/knc"
	"phiopenssl/internal/vpu"
)

// Cost-calibration regression, the companion of internal/vmont's golden
// instruction-count test: the direct backend's charged cycles are derived
// from a one-time sim measurement on a synthetic modulus, so for any
// modulus of the same limb width they must match what the sim actually
// measures EXACTLY — equality, not tolerance. The batch kernels'
// instruction counts are pure functions of the limb count (the CIOS
// carries ride in masks, the pack/unpack gather pattern is fixed by the
// layout), which is what makes the derivation sound; if this test starts
// failing, a kernel picked up a data-dependent instruction and the
// calibration contract is broken.

// TestDirectCalibrationMatchesSimExactly pins one Mul and one ModExp at
// the serving width: identical per-class counts, identical per-phase
// attribution, and identical knc cycle conversions.
func TestDirectCalibrationMatchesSimExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := randOdd(rng, 1024)
	a, b := randBatch(rng, m), randBatch(rng, m)
	exp := randOdd(rng, 512)

	for _, op := range []struct {
		name string
		run  func(Kernels) []bn.Nat
	}{
		{"Mul", func(k Kernels) []bn.Nat { return k.MontMul(a[:], b[:]) }},
		{"ModExp", func(k Kernels) []bn.Nat { return k.ModExpShared(a[:], exp) }},
	} {
		sim, err := NewKernels(m, vpu.New())
		if err != nil {
			t.Fatal(err)
		}
		direct, err := NewKernels(m, vpu.NewDirect())
		if err != nil {
			t.Fatal(err)
		}
		// Context setup itself is part of the contract: NewKernels charged
		// both backends before any op ran.
		if sc, dc := sim.Backend().Counts(), direct.Backend().Counts(); sc != dc {
			t.Fatalf("%s: context-setup counts diverge: sim %v direct %v", op.name, sc, dc)
		}
		op.run(sim)
		op.run(direct)
		sc, dc := sim.Backend().Counts(), direct.Backend().Counts()
		if sc != dc {
			t.Fatalf("%s: counts diverge:\n sim    %v\n direct %v", op.name, sc, dc)
		}
		simCycles := knc.KNCVectorCosts.VectorCycles(sc)
		directCycles := knc.KNCVectorCosts.VectorCycles(dc)
		if simCycles != directCycles {
			t.Fatalf("%s: cycles diverge: sim %v direct %v", op.name, simCycles, directCycles)
		}
		sp, dp := sim.Backend().PhaseCounts(), direct.Backend().PhaseCounts()
		var phaseSum vpu.Counts
		for p := range sp {
			if sp[p] != dp[p] {
				t.Fatalf("%s: phase %s diverges:\n sim    %v\n direct %v",
					op.name, PhaseName(vpu.Phase(p)), sp[p], dp[p])
			}
			for i, n := range dp[p] {
				phaseSum[i] += n
			}
		}
		if phaseSum != dc {
			t.Fatalf("%s: direct phase sum %v != total %v", op.name, phaseSum, dc)
		}
		t.Logf("%s: %v cycles on both backends", op.name, directCycles)
	}
}

// TestDirectCalibrationPortsAcrossModuli: the per-width calibration is
// measured once (on the first modulus of that width) and cached; a second,
// different modulus of the same width must still charge exactly what the
// sim measures for it.
func TestDirectCalibrationPortsAcrossModuli(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	m1, m2 := randOdd(rng, 768), randOdd(rng, 768)
	if m1.Equal(m2) {
		t.Fatal("rng collision")
	}
	// Warm the width-24 calibration cache via m1.
	if _, err := NewKernels(m1, vpu.NewDirect()); err != nil {
		t.Fatal(err)
	}
	sim, err := NewKernels(m2, vpu.New())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewKernels(m2, vpu.NewDirect())
	if err != nil {
		t.Fatal(err)
	}
	a, b := randBatch(rng, m2), randBatch(rng, m2)
	sim.MontMul(a[:], b[:])
	direct.MontMul(a[:], b[:])
	if sc, dc := sim.Backend().Counts(), direct.Backend().Counts(); sc != dc {
		t.Fatalf("cached calibration does not port to a second modulus:\n sim    %v\n direct %v", sc, dc)
	}
}

// TestPublicExponentChargesTwentyMultiplies pins the public-exponent
// schedule: m^65537 is 17 bits, so ModExpShared runs 1-bit windows —
// ToMont, One, sixteen squarings, one multiply and FromMont — and a pass
// charges exactly one pack, one unpack and 20 Montgomery-multiply events
// on both backends, phase by phase.
func TestPublicExponentChargesTwentyMultiplies(t *testing.T) {
	rng := rand.New(rand.NewSource(65537))
	m := randOdd(rng, 1024)
	a := randBatch(rng, m)
	cal := calibrate(m.LimbLen())
	var want [vpu.MaxPhases]vpu.Counts
	want[PhasePack] = cal.pack.Add(cal.unpack)
	for ph := range want {
		for i, n := range cal.mul[ph] {
			want[ph][i] += 20 * n
		}
	}
	sim, direct := bothKernels(t, m)
	for _, k := range []Kernels{sim, direct} {
		k.Backend().Reset()
		k.ModExpShared(a[:], bn.FromUint64(65537))
		got := k.Backend().PhaseCounts()
		for ph := range want {
			if got[ph] != want[ph] {
				t.Fatalf("%T phase %s: %v, want %v", k, PhaseName(vpu.Phase(ph)), got[ph], want[ph])
			}
		}
	}
}

// TestNewKernelsCachedModulusAllocs: a direct context on a modulus seen
// before takes its constants (modulus words, -n^-1, R^2 mod n) from the
// per-modulus cache, so it allocates only itself and its two scratch
// buffers — no bn division.
func TestNewKernelsCachedModulusAllocs(t *testing.T) {
	m := randOdd(rand.New(rand.NewSource(12)), 2048)
	d := vpu.NewDirect()
	if _, err := NewKernels(m, d); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewKernels(m, d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("NewKernels on a cached modulus: %v allocations, want at most 3", allocs)
	}
}

// TestNewKernelsConcurrentSameModulus races first contexts on one new
// modulus (run under -race): every context must compute the same results
// and charge the same counts as a sim context.
func TestNewKernelsConcurrentSameModulus(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randOdd(rng, 544)
	a := randBatch(rng, m)
	exp := randOdd(rng, 200)
	sim, err := NewKernels(m, vpu.New())
	if err != nil {
		t.Fatal(err)
	}
	want := sim.ModExpShared(a[:], exp)
	wantCounts := sim.Backend().Counts()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k, err := NewKernels(m, vpu.NewDirect())
			if err != nil {
				errs <- err.Error()
				return
			}
			got := k.ModExpShared(a[:], exp)
			for l := range got {
				if !got[l].Equal(want[l]) {
					errs <- "lane result differs from the sim's"
					return
				}
			}
			if c := k.Backend().Counts(); c != wantCounts {
				errs <- "counts differ from the sim's"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
