// Package vbatch implements batch ("vertical") vectorization of Montgomery
// arithmetic: sixteen independent operations, one per vector lane, sharing
// a single modulus.
//
// This is the other way to vectorize RSA on a 16-lane machine. PhiOpenSSL
// (internal/vmont) vectorizes *within* one operation — consecutive limbs
// in consecutive lanes — which minimizes single-operation latency but
// fights cross-lane carries. The batch layout puts limb j of sixteen
// different operands into one vector, so every carry chain stays inside
// its lane: the kernel is literally the scalar CIOS loop with each word
// replaced by a vector, no valignd and no vector<->scalar crossings in the
// inner loop. Latency per operation is worse (a full scalar-schedule pass)
// but throughput is better — the trade an RSA server terminating many
// handshakes under one key can exploit. Ablation experiment A4 quantifies
// the comparison.
//
// All kernels are bit-exact and validated per lane against internal/bn.
package vbatch

import (
	"fmt"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/vpu"
)

// BatchSize is the number of independent operations per batch (one per
// vector lane).
const BatchSize = vpu.Lanes

// Attribution phases for the batch kernels. The vpu.Unit provides anonymous
// per-phase meters; these constants give them meaning for this kernel
// family, answering "where did the cycles go?" per pass: operand
// gather/scatter transposes, the a*b multiply half of CIOS, the Montgomery
// reduction half, the window-table lookup, and the CRT recombination
// region. Attribution is leaf-level — Mul always splits its work into
// PhaseMul/PhaseReduce even when called from table build or recombination,
// so a phase measures an arithmetic activity, not a call site.
const (
	// PhaseOther is the default slot: constant broadcasts and anything a
	// kernel did not bracket explicitly.
	PhaseOther vpu.Phase = 0
	// PhasePack covers the lane-transposing gathers/scatters (Pack/Unpack).
	PhasePack vpu.Phase = 1
	// PhaseMul covers the a*b multiply-accumulate half of CIOS.
	PhaseMul vpu.Phase = 2
	// PhaseReduce covers the Montgomery reduction half: quotient digit,
	// n*q accumulate, carry merge and the final conditional subtraction.
	PhaseReduce vpu.Phase = 3
	// PhaseWindow covers window-table entry selection. With a shared
	// exponent (ModExpShared) selection is direct indexing and issues no
	// vector instructions — this slot staying at zero is the measurement,
	// not a bug; ModExpMulti's masked compare+blend scan lands here.
	PhaseWindow vpu.Phase = 4
	// PhaseCRT covers the CRT recombination region (internal/rsakit). The
	// recombination itself is host-side bn arithmetic that issues no
	// vector instructions, so this slot measures exactly the vector work
	// (if any) a recombination strategy adds.
	PhaseCRT vpu.Phase = 5
	// NumPhases is the number of named phases above.
	NumPhases = 6
)

var phaseNames = [NumPhases]string{"other", "pack", "mul", "reduce", "window", "crt"}

// PhaseName returns the metric-label name of an attribution phase.
func PhaseName(p vpu.Phase) string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return "other"
}

// Ctx holds per-modulus constants for the batch kernels.
type Ctx struct {
	modulus bn.Nat
	k       int       // limb count of the modulus (no padding needed)
	nSplat  []vpu.Vec // n[j] broadcast across lanes, k vectors
	n0Splat vpu.Vec   // -n^-1 mod 2^32, broadcast
	rrSplat []vpu.Vec // R^2 mod n per limb, broadcast
	oneVec  vpu.Vec   // all-ones (lane value 1)
	unit    *vpu.Unit
}

// NewCtx prepares a batch context for the odd modulus m > 1, issuing the
// constant broadcasts on u.
func NewCtx(m bn.Nat, u *vpu.Unit) (*Ctx, error) {
	if m.IsZero() || m.IsOne() {
		return nil, fmt.Errorf("vbatch: modulus must be > 1, got %s", m)
	}
	if !m.IsOdd() {
		return nil, fmt.Errorf("vbatch: modulus must be odd, got %s", m)
	}
	k := m.LimbLen()
	nLimbs := m.Limbs()
	rr := bn.One().Shl(uint(64 * k)).Mod(m).LimbsPadded(k)
	ctx := &Ctx{
		modulus: m,
		k:       k,
		nSplat:  make([]vpu.Vec, k),
		rrSplat: make([]vpu.Vec, k),
		unit:    u,
	}
	for j := 0; j < k; j++ {
		ctx.nSplat[j] = u.Broadcast(nLimbs[j])
		ctx.rrSplat[j] = u.Broadcast(rr[j])
	}
	ctx.n0Splat = u.Broadcast(negInv32(nLimbs[0]))
	ctx.oneVec = u.Broadcast(1)
	return ctx, nil
}

// K returns the limb width of batch values.
func (c *Ctx) K() int { return c.k }

// Modulus returns N.
func (c *Ctx) Modulus() bn.Nat { return c.modulus }

// Unit returns the vector unit the context issues instructions on.
func (c *Ctx) Unit() *vpu.Unit { return c.unit }

func negInv32(v uint32) uint32 {
	inv := v
	for i := 0; i < 5; i++ {
		inv *= 2 - v*inv
	}
	return -inv
}

// Batch is sixteen k-limb values in lane-transposed layout: vector j holds
// limb j of every lane's value.
type Batch []vpu.Vec

// Pack transposes sixteen values (each < N) into batch layout. The
// transposition is performed with one vgatherdd per limb over the
// flattened operand array — the strided gather the real batch kernels pay
// once per exponentiation.
func (c *Ctx) Pack(vals *[BatchSize]bn.Nat) Batch {
	flat := make([]uint32, BatchSize*c.k)
	for l, v := range vals {
		if v.Cmp(c.modulus) >= 0 {
			panic("vbatch: Pack operand not reduced")
		}
		copy(flat[l*c.k:(l+1)*c.k], v.LimbsPadded(c.k))
	}
	out := make(Batch, c.k)
	prev := c.unit.SetPhase(PhasePack)
	defer c.unit.SetPhase(prev)
	var idx vpu.Vec
	for j := 0; j < c.k; j++ {
		for l := 0; l < BatchSize; l++ {
			idx[l] = uint32(l*c.k + j)
		}
		out[j] = c.unit.Gather(flat, idx, vpu.MaskAll)
	}
	return out
}

// Unpack transposes a batch back into sixteen values, with one vscatterdd
// per limb.
func (c *Ctx) Unpack(b Batch) [BatchSize]bn.Nat {
	flat := make([]uint32, BatchSize*c.k)
	prev := c.unit.SetPhase(PhasePack)
	var idx vpu.Vec
	for j := 0; j < c.k; j++ {
		for l := 0; l < BatchSize; l++ {
			idx[l] = uint32(l*c.k + j)
		}
		c.unit.Scatter(flat, idx, b[j], vpu.MaskAll)
	}
	c.unit.SetPhase(prev)
	var out [BatchSize]bn.Nat
	for l := 0; l < BatchSize; l++ {
		out[l] = bn.FromLimbs(flat[l*c.k : (l+1)*c.k])
	}
	return out
}

// CheckFill reports whether n live operands fit one kernel pass
// (1..BatchSize). The Kernels methods panic on a fill this rejects, so
// batch entry points call it first and return its error instead.
func CheckFill(n int) error {
	if n < 1 || n > BatchSize {
		return fmt.Errorf("vbatch: %d operands, want 1..%d", n, BatchSize)
	}
	return nil
}

// mustFill panics unless n is a valid fill.
func mustFill(n int) {
	if err := CheckFill(n); err != nil {
		panic(err)
	}
}

// padLanes expands 1..BatchSize live operands into a full per-lane array
// by duplicating the last live operand into the dead lanes. This is how a
// partial batch rides the interpreted 16-lane instruction stream: the
// dead lanes execute the same lane-uniform schedule, so the simulated
// cycles equal a full pass, and their results are dropped. The duplicate
// (rather than zero) keeps ModExpMulti's schedule length and table-scan
// matches those of the live lanes.
func padLanes(vals []bn.Nat) *[BatchSize]bn.Nat {
	mustFill(len(vals))
	var out [BatchSize]bn.Nat
	copy(out[:], vals)
	last := vals[len(vals)-1]
	for l := len(vals); l < BatchSize; l++ {
		out[l] = last
	}
	return &out
}

// Splat returns the batch holding the same value x in every lane.
func (c *Ctx) Splat(x bn.Nat) Batch {
	limbs := x.Mod(c.modulus).LimbsPadded(c.k)
	out := make(Batch, c.k)
	for j := 0; j < c.k; j++ {
		out[j] = c.unit.Broadcast(limbs[j])
	}
	return out
}
