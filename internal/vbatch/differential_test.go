package vbatch

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/vpu"
)

// bothKernels builds the same modulus on a fresh sim and a fresh direct
// backend.
func bothKernels(t testing.TB, m bn.Nat) (sim, direct Kernels) {
	t.Helper()
	s, err := NewKernels(m, vpu.New())
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewKernels(m, vpu.NewDirect())
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

// fills are the live-lane counts each differential runs at: one lane, two,
// one short of full, and full.
var fills = []int{1, 2, 15, BatchSize}

// diffCheck runs op at every fill in fills; see diffCheckFill.
func diffCheck(t *testing.T, name string, sim, direct Kernels,
	op func(k Kernels, fill int) []bn.Nat) {
	t.Helper()
	for _, fill := range fills {
		diffCheckFill(t, name, sim, direct, fill, op)
	}
}

// diffCheckFill runs op with fill live lanes on both backends and demands
// one result per live lane, bit-identical lane results, identical total
// instruction counts and identical per-phase attribution — the full
// calibration contract, not just value agreement. A partial fill must
// charge what a full pass charges, so the counts are compared across
// fills too.
func diffCheckFill(t *testing.T, name string, sim, direct Kernels, fill int,
	op func(k Kernels, fill int) []bn.Nat) {
	t.Helper()
	sim.Backend().Reset()
	direct.Backend().Reset()
	want := op(sim, fill)
	got := op(direct, fill)
	if len(want) != fill || len(got) != fill {
		t.Fatalf("%s fill %d: %d sim and %d direct results", name, fill, len(want), len(got))
	}
	for l := range want {
		if !got[l].Equal(want[l]) {
			t.Fatalf("%s fill %d lane %d: direct %s != sim %s", name, fill, l, got[l], want[l])
		}
	}
	sc, dc := sim.Backend().Counts(), direct.Backend().Counts()
	if sc != dc {
		t.Fatalf("%s fill %d counts diverge:\n sim    %v\n direct %v", name, fill, sc, dc)
	}
	sp, dp := sim.Backend().PhaseCounts(), direct.Backend().PhaseCounts()
	for p := range sp {
		if sp[p] != dp[p] {
			t.Fatalf("%s fill %d phase %s diverges:\n sim    %v\n direct %v",
				name, fill, PhaseName(vpu.Phase(p)), sp[p], dp[p])
		}
	}
}

// TestBackendDifferentialSizes drives random batches at the RSA-relevant
// widths, and at odd limb counts (k = 3, 17, 33), through both backends
// at every fill: MontMul, shared-exponent and per-lane exponentiation
// must agree bit for bit in results, counts and phases. An odd k is the
// only width whose direct multiply ends on a half-word step.
func TestBackendDifferentialSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, bits := range []int{512, 1024, 2048, 96, 544, 1056} {
		m := randOdd(rng, bits)
		sim, direct := bothKernels(t, m)

		a, b := randBatch(rng, m), randBatch(rng, m)
		diffCheck(t, "MontMul", sim, direct, func(k Kernels, fill int) []bn.Nat {
			return k.MontMul(a[:fill], b[:fill])
		})

		exp := randOdd(rng, bits/2)
		diffCheck(t, "ModExpShared", sim, direct, func(k Kernels, fill int) []bn.Nat {
			return k.ModExpShared(a[:fill], exp)
		})

		// Per-lane exponents of uneven lengths: the uniform window
		// schedule must still replay identically (it runs to the longest
		// live exponent).
		var exps [BatchSize]bn.Nat
		for l := range exps {
			exps[l] = randOdd(rng, 64+l*7)
		}
		diffCheck(t, "ModExpMulti", sim, direct, func(k Kernels, fill int) []bn.Nat {
			return k.ModExpMulti(a[:fill], exps[:fill])
		})
	}
}

// TestSharedWindowBoundaries drives ModExpShared across every width step
// of its window rule — both sides of OpenSSL's 23/79/239/671-bit
// boundaries, the cap at 5 bits above 671, 1- and 2-bit exponents and the
// 17-bit public exponent — at fills 1 and 16. Both backends must return
// the reference result and agree in counts and phases.
func TestSharedWindowBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := randOdd(rng, 256)
	sim, direct := bothKernels(t, m)
	a := randBatch(rng, m)
	for _, bits := range []int{1, 2, 17, 23, 24, 79, 80, 239, 240, 671, 672} {
		exp := randOdd(rng, bits)
		if exp.BitLen() != bits {
			t.Fatalf("%d-bit exponent has %d bits", bits, exp.BitLen())
		}
		for _, fill := range []int{1, BatchSize} {
			name := fmt.Sprintf("ModExpShared(%d-bit exp, w=%d)", bits, sharedWindow(bits))
			diffCheckFill(t, name, sim, direct, fill, func(k Kernels, fill int) []bn.Nat {
				out := k.ModExpShared(a[:fill], exp)
				for l := range out {
					if want := a[l].ModExp(exp, m); !out[l].Equal(want) {
						t.Fatalf("%s fill %d lane %d: %s != %s", name, fill, l, out[l], want)
					}
				}
				return out
			})
		}
	}
}

// TestBackendDifferentialEdgeCases pins the schedule branch points at
// every fill: zero exponent, one-limb modulus, zero and maximal lane
// values.
func TestBackendDifferentialEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randOdd(rng, 128)
	sim, direct := bothKernels(t, m)

	var vals [BatchSize]bn.Nat
	vals[0] = bn.Zero()
	vals[1] = bn.One()
	vals[2] = m.Sub(bn.One()) // N-1: every limb boundary exercised
	for l := 3; l < BatchSize; l++ {
		vals[l] = randBelow(rng, m)
	}
	diffCheck(t, "MontMul(edges)", sim, direct, func(k Kernels, fill int) []bn.Nat {
		return k.MontMul(vals[:fill], vals[:fill])
	})
	diffCheck(t, "ModExpShared(zero exp)", sim, direct, func(k Kernels, fill int) []bn.Nat {
		return k.ModExpShared(vals[:fill], bn.Zero())
	})
	var zeroExps [BatchSize]bn.Nat
	diffCheck(t, "ModExpMulti(zero exps)", sim, direct, func(k Kernels, fill int) []bn.Nat {
		return k.ModExpMulti(vals[:fill], zeroExps[:fill])
	})

	sm, dm := bothKernels(t, bn.MustHex("10001"))
	one := randBatch(rng, bn.MustHex("10001"))
	diffCheck(t, "MontMul(k=1)", sm, dm, func(k Kernels, fill int) []bn.Nat {
		return k.MontMul(one[:fill], one[:fill])
	})
}

// FuzzBackendDifferential explores the modulus/operand space (extending
// internal/bn's fuzz-harness pattern): any odd modulus > 1, any lane
// values and any fill (derived from the seed) must produce bit-identical
// results and counts on both backends.
func FuzzBackendDifferential(f *testing.F) {
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, []byte{0x12, 0x34}, []byte{3}, int64(1))
	f.Add([]byte{0x01, 0x00, 0x01}, []byte{0xff}, []byte{0x10, 0x01}, int64(2))
	// Odd limb counts (k = 3 and k = 9): the direct multiply's half-word
	// last step.
	f.Add(bytes.Repeat([]byte{0xe5}, 12), []byte{0x7f, 0xff}, []byte{0xff, 0x81}, int64(3))
	f.Add(append([]byte{0x80}, bytes.Repeat([]byte{0x3b}, 35)...), []byte{0x01}, []byte{0xa5, 0x5a, 0x01}, int64(15))
	f.Fuzz(func(t *testing.T, mb, seedOp, eb []byte, seed int64) {
		if len(mb) > 40 || len(eb) > 8 {
			return // keep per-case cost bounded
		}
		m := bn.FromBytes(mb)
		if m.Cmp(bn.One()) <= 0 || !m.IsOdd() {
			return
		}
		sim, direct := bothKernels(t, m)
		rng := rand.New(rand.NewSource(seed))
		fill := 1 + int(uint64(seed)%BatchSize)
		a := randBatch(rng, m)
		b := randBatch(rng, m)
		if len(seedOp) > 0 {
			a[0] = bn.FromBytes(seedOp).Mod(m)
		}
		diffCheckFill(t, "MontMul", sim, direct, fill, func(k Kernels, fill int) []bn.Nat {
			return k.MontMul(a[:fill], b[:fill])
		})
		exp := bn.FromBytes(eb)
		diffCheckFill(t, "ModExpShared", sim, direct, fill, func(k Kernels, fill int) []bn.Nat {
			return k.ModExpShared(a[:fill], exp)
		})
	})
}

// TestDirectAllocsIndependentOfExponent: a direct kernel call takes its
// lane storage from one arena and multiplies in place, so its allocations
// do not grow with the multiplies its exponent schedules.
func TestDirectAllocsIndependentOfExponent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randOdd(rng, 1024)
	k, err := NewKernels(m, vpu.NewDirect())
	if err != nil {
		t.Fatal(err)
	}
	a := randBatch(rng, m)
	short, long := randOdd(rng, 64), randOdd(rng, 1024)
	var shortExps, longExps [BatchSize]bn.Nat
	for l := range shortExps {
		shortExps[l], longExps[l] = randOdd(rng, 64), randOdd(rng, 1024)
	}
	for _, fill := range []int{1, BatchSize} {
		for _, op := range []struct {
			name        string
			short, long func()
		}{
			{"ModExpShared",
				func() { k.ModExpShared(a[:fill], short) },
				func() { k.ModExpShared(a[:fill], long) }},
			{"ModExpMulti",
				func() { k.ModExpMulti(a[:fill], shortExps[:fill]) },
				func() { k.ModExpMulti(a[:fill], longExps[:fill]) }},
		} {
			s, l := testing.AllocsPerRun(5, op.short), testing.AllocsPerRun(5, op.long)
			if s != l {
				t.Errorf("%s fill %d: %v allocations with a 64-bit exponent, %v with a 1024-bit one",
					op.name, fill, s, l)
			}
		}
	}
}
