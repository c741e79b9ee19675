package vbatch

import (
	"fmt"
	"sync"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/vpu"
)

// Direct backend: the batch kernels with the instruction interpreter
// removed. Each live lane's Montgomery arithmetic runs as plain
// uint32/uint64 limb code (the scalar CIOS of internal/bn, once per live
// lane; the dead lanes of a partial batch are never computed), and the
// vpu.Direct meter is charged per kernel *event* — one packed gather
// transpose, one Montgomery multiply, one window-table probe — with the
// exact per-class, per-phase instruction deltas the interpreted kernels
// would have issued for that event over all sixteen lanes.
//
// The charging is exact, not approximate, because every vbatch kernel's
// instruction count is a pure function of the limb width k: the CIOS
// schedule is data-independent (per-lane carries ride mask vectors, never
// branches), the Pack/Unpack gather cost depends only on the fixed
// lane-transposing index pattern, and the window schedules branch only on
// exponent digits — which the direct kernels replay identically. The
// per-k event costs are measured once against a scratch interpreted
// context (calibrate) and cached for the process lifetime; the
// differential and calibration tests pin the equality.

// calibration holds the per-event cost deltas for one limb width,
// measured against the interpreted kernels.
type calibration struct {
	init   vpu.Counts                // NewCtx constant broadcasts (ambient phase)
	pack   vpu.Counts                // one Pack transpose (PhasePack)
	unpack vpu.Counts                // one Unpack transpose (PhasePack)
	mul    [vpu.MaxPhases]vpu.Counts // one Montgomery multiply (PhaseMul+PhaseReduce)
}

// Window-scan event costs (PhaseWindow), mirrored from exp.go's
// ModExpMulti helpers: selectEntries issues one Broadcast + CmpEq probe
// per table entry plus k Blends per entry that matched a lane, and
// digitsAt issues one Load. ModExpShared's direct indexing issues nothing.
var (
	winDigitCost = vpu.Counts{vpu.ClassMem: 1}
	winProbeCost = vpu.Counts{vpu.ClassShuffle: 1, vpu.ClassALU: 1}
)

var calCache sync.Map // k (int) -> *calibration

// calibrate measures the per-event costs for limb width k by running each
// event once on a scratch interpreted context with a synthetic k-limb
// modulus (the counts do not depend on the modulus value, only on k).
func calibrate(k int) *calibration {
	if v, ok := calCache.Load(k); ok {
		return v.(*calibration)
	}
	limbs := make([]uint32, k)
	for i := range limbs {
		limbs[i] = 0xffffffff // odd, top limb set: any k-limb odd value works
	}
	m := bn.FromLimbs(limbs)
	u := vpu.New()
	ctx, err := NewCtx(m, u)
	if err != nil {
		panic("vbatch: calibrate: " + err.Error())
	}
	cal := &calibration{init: u.Counts()}

	delta := func(f func()) vpu.Counts {
		before := u.Counts()
		f()
		after := u.Counts()
		for i := range after {
			after[i] -= before[i]
		}
		return after
	}
	var zeros [BatchSize]bn.Nat
	var b Batch
	cal.pack = delta(func() { b = ctx.Pack(&zeros) })
	beforePh := u.PhaseCounts()
	var p Batch
	delta(func() { p = ctx.Mul(b, b) })
	afterPh := u.PhaseCounts()
	for ph := range afterPh {
		for i := range afterPh[ph] {
			cal.mul[ph][i] = afterPh[ph][i] - beforePh[ph][i]
		}
	}
	cal.unpack = delta(func() { ctx.Unpack(p) })

	actual, _ := calCache.LoadOrStore(k, cal)
	return actual.(*calibration)
}

// directCtx implements Kernels on a vpu.Direct meter.
type directCtx struct {
	modulus bn.Nat
	k       int
	n       []uint32 // modulus, exactly k limbs
	n0      uint32   // -n^-1 mod 2^32
	rr      []uint32 // R^2 mod n, k limbs
	one     []uint32 // the value 1, k limbs
	d       *vpu.Direct
	cal     *calibration
	z       []uint32 // montMul scratch, 2k limbs
	live    int      // lanes the current kernel call computes, 1..BatchSize
}

var _ Kernels = (*directCtx)(nil)

// newDirectCtx mirrors NewCtx: same validation, same context-setup charge
// (the 2k+2 constant broadcasts, in the ambient phase).
func newDirectCtx(m bn.Nat, d *vpu.Direct) (*directCtx, error) {
	if m.IsZero() || m.IsOne() {
		return nil, fmt.Errorf("vbatch: modulus must be > 1, got %s", m)
	}
	if !m.IsOdd() {
		return nil, fmt.Errorf("vbatch: modulus must be odd, got %s", m)
	}
	k := m.LimbLen()
	c := &directCtx{
		modulus: m,
		k:       k,
		n:       m.LimbsPadded(k),
		n0:      negInv32(m.Limbs()[0]),
		rr:      bn.One().Shl(uint(64 * k)).Mod(m).LimbsPadded(k),
		one:     make([]uint32, k),
		d:       d,
		cal:     calibrate(k),
		z:       make([]uint32, 2*k),
	}
	c.one[0] = 1
	c.d.Charge(c.cal.init)
	return c, nil
}

// K implements Kernels.
func (c *directCtx) K() int { return c.k }

// Modulus implements Kernels.
func (c *directCtx) Modulus() bn.Nat { return c.modulus }

// Backend implements Kernels.
func (c *directCtx) Backend() vpu.Backend { return c.d }

// begin validates a kernel call's fill and sets the live lanes its events
// compute.
func (c *directCtx) begin(live int) {
	mustFill(live)
	c.live = live
}

// dBatch is sixteen k-limb values, one slice per lane; only the first
// c.live lanes are computed (kernel outputs leave the dead lanes nil).
// Lanes may alias (broadcast constants, table-selected entries): kernel
// events never mutate their inputs, only freshly allocated outputs.
type dBatch [BatchSize][]uint32

// corrupt exposes the attached Corruptor at a kernel phase boundary: limb
// j of all sixteen lanes is assembled into one vpu.Vec — exactly the
// lane-transposed register the interpreted kernel holds at that point —
// passed through the injector, and the live lanes are written back. Dead
// lanes read as zero and are never written back, so a flip that lands on
// one is dropped, as the sim's padding-lane result is; the injector still
// sees one full vector per limb per event, so corruption-point counts and
// its RNG draws do not depend on the fill. Corruption opportunities are
// per limb-vector per event here, not per instruction as on the sim, so
// per-instruction fault rates translate differently (convert per-pass
// rates with a counting Corruptor, as the fault tests do); detection via
// the Bellcore check is identical.
func (c *directCtx) corrupt(b *dBatch) {
	fault := c.d.Fault()
	if fault == nil {
		return
	}
	for j := 0; j < c.k; j++ {
		var v vpu.Vec
		for l := 0; l < c.live; l++ {
			v[l] = b[l][j]
		}
		fault.CorruptVec(&v)
		for l := 0; l < c.live; l++ {
			b[l][j] = v[l]
		}
	}
}

// alloc carves the live lanes' k-limb slices out of one backing array.
func (c *directCtx) alloc() dBatch {
	flat := make([]uint32, c.live*c.k)
	var out dBatch
	for l := 0; l < c.live; l++ {
		out[l] = flat[l*c.k : (l+1)*c.k : (l+1)*c.k]
	}
	return out
}

// pack mirrors Ctx.Pack: transpose the live reduced values into lane
// slices, charging one full gather transpose.
func (c *directCtx) pack(vals []bn.Nat) dBatch {
	out := c.alloc()
	for l, v := range vals {
		if v.Cmp(c.modulus) >= 0 {
			panic("vbatch: Pack operand not reduced")
		}
		copy(out[l], v.LimbsPadded(c.k))
	}
	c.d.ChargeAt(PhasePack, c.cal.pack)
	c.corrupt(&out)
	return out
}

// unpack mirrors Ctx.Unpack: one scatter transpose, then the live lanes'
// values.
func (c *directCtx) unpack(b dBatch) []bn.Nat {
	c.d.ChargeAt(PhasePack, c.cal.unpack)
	c.corrupt(&b)
	out := make([]bn.Nat, c.live)
	for l := range out {
		out[l] = bn.FromLimbs(b[l])
	}
	return out
}

// mul is one Montgomery-multiply event: one scalar CIOS pass per live
// lane plus the calibrated charge of the full vectorized multiply.
func (c *directCtx) mul(a, b dBatch) dBatch {
	out := c.alloc()
	for l := 0; l < c.live; l++ {
		c.montMul(out[l], a[l], b[l])
	}
	c.d.ChargePhases(c.cal.mul)
	c.corrupt(&out)
	return out
}

// splat returns the batch with the same limbs in every lane (the inputs
// of ToMont/FromMont); lanes alias one slice, which is safe because
// kernel events never mutate inputs.
func splat(limbs []uint32) dBatch {
	var out dBatch
	for l := range out {
		out[l] = limbs
	}
	return out
}

func (c *directCtx) toMont(a dBatch) dBatch   { return c.mul(a, splat(c.rr)) }
func (c *directCtx) fromMont(a dBatch) dBatch { return c.mul(a, splat(c.one)) }
func (c *directCtx) montOne() dBatch          { return c.mul(splat(c.rr), splat(c.one)) }

// MontMul implements Kernels: pack both operands, multiply, unpack — the
// same event sequence as Ctx.MontMul.
func (c *directCtx) MontMul(a, b []bn.Nat) []bn.Nat {
	mustPair(a, b)
	c.begin(len(a))
	return c.unpack(c.mul(c.pack(a), c.pack(b)))
}

// ModExpShared implements Kernels, replaying Ctx.ModExpShared's event
// schedule exactly: same table build, same squarings, same zero-digit
// multiply skips (the shared exponent makes them lane-uniform).
func (c *directCtx) ModExpShared(bases []bn.Nat, exp bn.Nat) []bn.Nat {
	c.begin(len(bases))
	if exp.IsZero() {
		return ones(len(bases), c.modulus)
	}
	xm := c.toMont(c.pack(reduce(bases, c.modulus)))

	const w = 5
	table := make([]dBatch, 1<<w)
	table[0] = c.montOne()
	table[1] = xm
	for i := 2; i < len(table); i++ {
		table[i] = c.mul(table[i-1], xm)
	}

	windows := (exp.BitLen() + w - 1) / w
	acc := table[exp.Bits((windows-1)*w, w)]
	for wi := windows - 2; wi >= 0; wi-- {
		for s := 0; s < w; s++ {
			acc = c.mul(acc, acc)
		}
		if d := exp.Bits(wi*w, w); d != 0 {
			acc = c.mul(acc, table[d])
		}
	}
	return c.unpack(c.fromMont(acc))
}

// ModExpMulti implements Kernels, replaying Ctx.ModExpMulti: the uniform
// window schedule to the longest exponent, with the masked table scan's
// probe/blend charges reproduced per entry (including the mask==0 skips,
// which depend only on the exponent digits). The sim's dead lanes repeat
// the last live exponent, so an entry matches some lane there exactly
// when it matches a live lane here.
func (c *directCtx) ModExpMulti(bases, exps []bn.Nat) []bn.Nat {
	mustPair(bases, exps)
	c.begin(len(bases))
	maxBits := maxBitLen(exps)
	if maxBits == 0 {
		return ones(len(bases), c.modulus)
	}
	xm := c.toMont(c.pack(reduce(bases, c.modulus)))

	const w = 4
	table := make([]dBatch, 1<<w)
	table[0] = c.montOne()
	table[1] = xm
	for i := 2; i < len(table); i++ {
		table[i] = c.mul(table[i-1], xm)
	}

	selectEntries := func(digits [BatchSize]uint32) dBatch {
		var out dBatch
		for e := range table {
			c.d.ChargeAt(PhaseWindow, winProbeCost)
			var mask vpu.Mask
			for l, dg := range digits[:c.live] {
				if dg == uint32(e) {
					mask |= 1 << l
				}
			}
			if mask == 0 {
				continue
			}
			c.d.ChargeAt(PhaseWindow, vpu.Counts{vpu.ClassALU: uint64(c.k)})
			for l := 0; l < c.live; l++ {
				if mask>>l&1 == 1 {
					out[l] = table[e][l]
				}
			}
		}
		return out
	}
	digitsAt := func(wi int) [BatchSize]uint32 {
		c.d.ChargeAt(PhaseWindow, winDigitCost)
		var d [BatchSize]uint32
		for l, e := range exps {
			d[l] = e.Bits(wi*w, w)
		}
		return d
	}

	windows := (maxBits + w - 1) / w
	acc := selectEntries(digitsAt(windows - 1))
	for wi := windows - 2; wi >= 0; wi-- {
		for s := 0; s < w; s++ {
			acc = c.mul(acc, acc)
		}
		acc = c.mul(acc, selectEntries(digitsAt(wi)))
	}
	return c.unpack(c.fromMont(acc))
}

// montMul writes a*b*R^-1 mod n into out (k limbs), the scalar CIOS of
// internal/bn with the scratch buffer reused across calls. For reduced
// inputs (< n) the result is fully reduced and bit-identical per lane to
// the interpreted kernel; fault-corrupted out-of-range inputs stay
// well-defined k-limb arithmetic whose garbage the Bellcore check catches.
func (c *directCtx) montMul(out, a, b []uint32) {
	k := c.k
	z := c.z
	for i := range z {
		z[i] = 0
	}
	var carry uint32
	for i := 0; i < k; i++ {
		c2 := addMulVVWDirect(z[i:k+i], a, b[i])
		t := z[i] * c.n0
		c3 := addMulVVWDirect(z[i:k+i], c.n, t)
		cx := carry + c2
		cy := cx + c3
		z[k+i] = cy
		if cx < c2 || cy < c3 {
			carry = 1
		} else {
			carry = 0
		}
	}
	if carry != 0 {
		subVVDirect(out, z[k:], c.n)
	} else {
		copy(out, z[k:])
	}
	if cmpLimbsDirect(out, c.n) >= 0 {
		subVVDirect(out, out, c.n)
	}
}

// addMulVVWDirect computes z += x*y over equal-length slices, returning
// the carry limb (the CIOS inner kernel, one lane's worth).
func addMulVVWDirect(z, x []uint32, y uint32) uint32 {
	var carry uint64
	yv := uint64(y)
	for i := range x {
		p := yv*uint64(x[i]) + uint64(z[i]) + carry
		z[i] = uint32(p)
		carry = p >> 32
	}
	return uint32(carry)
}

// subVVDirect computes z = x - y over equal-length slices, discarding the
// final borrow.
func subVVDirect(z, x, y []uint32) {
	var borrow uint64
	for i := range z {
		d := uint64(x[i]) - uint64(y[i]) - borrow
		z[i] = uint32(d)
		borrow = (d >> 32) & 1
	}
}

// cmpLimbsDirect compares equal-length limb slices.
func cmpLimbsDirect(a, b []uint32) int {
	for i := len(a) - 1; i >= 0; i-- {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}
