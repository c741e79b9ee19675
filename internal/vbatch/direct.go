package vbatch

import (
	"fmt"
	"math/bits"
	"sync"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/vpu"
)

// Direct backend: the batch kernels with the instruction interpreter
// removed. Each live lane's Montgomery arithmetic runs as host code on
// 64-bit words (word-serial CIOS with math/bits, once per live lane; the
// dead lanes of a partial batch are never computed), and the vpu.Direct
// meter is charged per kernel *event* — one packed gather transpose, one
// Montgomery multiply, one window-table probe — with the exact per-class,
// per-phase instruction deltas the interpreted kernels would have issued
// for that event over all sixteen 32-bit lanes. The host word size is
// invisible outside this file: R stays 2^(32k) for the 32-bit limb count
// k, so every Montgomery value equals the sim's, and the fault injector
// still sees 32-bit limb vectors (see corrupt).
//
// The charging is exact, not approximate, because every vbatch kernel's
// instruction count is a pure function of the limb width k: the CIOS
// schedule is data-independent (per-lane carries ride mask vectors, never
// branches), the Pack/Unpack gather cost depends only on the fixed
// lane-transposing index pattern, and the window schedules branch only on
// the exponents — their digits, and for ModExpShared the bit length that
// sets the window width — which the direct kernels replay identically.
// The per-k event costs are measured once against a scratch interpreted
// context (calibrate) and cached for the process lifetime; the
// differential and calibration tests pin the equality.
//
// Each modulus's read-only constants are computed once and shared by its
// contexts (constsFor). Each kernel call takes all its lane storage — the
// operands, the window table and the accumulator — from one allocation,
// and every event writes its result in place.

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

// modConsts are one modulus's read-only kernel constants. Every direct
// context on the modulus shares one copy (see constsFor).
type modConsts struct {
	n       []uint64 // modulus, ⌈k/2⌉ words
	n0      uint64   // -n^-1 mod 2^64
	topMask uint64   // the top word's bits below 2^(32k)
	rr, one dBatch   // R^2 mod n and 1 in every lane, R = 2^(32k)
}

// newModConsts computes m's constants; R^2 mod m takes a bn division.
func newModConsts(m bn.Nat) *modConsts {
	k := m.LimbLen()
	words := (k + 1) / 2
	mc := &modConsts{n: make([]uint64, words), topMask: ^uint64(0)}
	if k%2 == 1 {
		mc.topMask = 0xffffffff
	}
	natWords(mc.n, m)
	mc.n0 = -invWord(mc.n[0])
	rr := make([]uint64, words)
	natWords(rr, bn.One().Shl(uint(64*k)).Mod(m))
	one := make([]uint64, words)
	one[0] = 1
	for l := range mc.rr {
		mc.rr[l], mc.one[l] = rr, one // lanes alias: kernel inputs are read-only
	}
	return mc
}

// constCacheMax bounds the per-modulus constant cache, like phiwork's
// instance cache; past it, each new modulus's contexts compute their own.
const constCacheMax = 1024

// constCache maps a modulus's big-endian bytes to its constants.
var constCache struct {
	sync.Mutex
	m map[string]*modConsts
}

// constsFor returns m's constants, computed once per modulus while the
// cache has room. The lookup key is built on the stack for moduli up to
// 4096 bits, so a hit allocates nothing.
func constsFor(m bn.Nat) *modConsts {
	var buf [512]byte
	var key []byte
	if n := (m.BitLen() + 7) / 8; n <= len(buf) {
		key = m.FillBytes(buf[:n])
	} else {
		key = m.Bytes()
	}
	constCache.Lock()
	mc := constCache.m[string(key)]
	constCache.Unlock()
	if mc != nil {
		return mc
	}
	mc = newModConsts(m)
	constCache.Lock()
	if constCache.m == nil {
		constCache.m = make(map[string]*modConsts)
	}
	if len(constCache.m) < constCacheMax {
		constCache.m[string(key)] = mc
	}
	constCache.Unlock()
	return mc
}

// directCtx implements Kernels on a vpu.Direct meter.
type directCtx struct {
	*modConsts
	modulus bn.Nat
	k       int // 32-bit limb count, the sim's lane width
	d       *vpu.Direct
	cal     *calibration
	t       []uint64 // montMul accumulator, ⌈k/2⌉ words
	limbs   []uint32 // unpack buffer, k limbs
	vec     vpu.Vec  // corrupt's limb vector, handed to the injector
	live    int      // lanes the current kernel call computes, 1..BatchSize
}

var _ Kernels = (*directCtx)(nil)

// newDirectCtx mirrors NewCtx: same validation, same context-setup charge
// (the 2k+2 constant broadcasts, in the ambient phase), which every
// context pays even though the host computes a modulus's constants once.
func newDirectCtx(m bn.Nat, d *vpu.Direct) (*directCtx, error) {
	if m.IsZero() || m.IsOne() {
		return nil, fmt.Errorf("vbatch: modulus must be > 1, got %s", m)
	}
	if !m.IsOdd() {
		return nil, fmt.Errorf("vbatch: modulus must be odd, got %s", m)
	}
	k := m.LimbLen()
	c := &directCtx{
		modConsts: constsFor(m),
		modulus:   m,
		k:         k,
		d:         d,
		cal:       calibrate(k),
		t:         make([]uint64, (k+1)/2),
		limbs:     make([]uint32, k),
	}
	c.d.Charge(c.cal.init)
	return c, nil
}

// invWord returns v^-1 mod 2^64 for odd v by Newton iteration: v is its
// own inverse mod 2^3, and each step doubles the correct low bits.
func invWord(v uint64) uint64 {
	inv := v
	for i := 0; i < 5; i++ {
		inv *= 2 - v*inv
	}
	return inv
}

// natWords writes x into w as little-endian 64-bit words, zero-padded; x
// must fit.
func natWords(w []uint64, x bn.Nat) {
	for i := range w {
		w[i] = uint64(x.Bits(64*i, 32)) | uint64(x.Bits(64*i+32, 32))<<32
	}
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

// dBatch is sixteen values of ⌈k/2⌉ 64-bit words, one slice per lane;
// only the first c.live lanes are computed. Every lane value stays below
// 2^(32k), so the top half of an odd k's last word is always zero.
type dBatch [BatchSize][]uint64

// arena carves the live lanes of every batch in bs out of one allocation.
func (c *directCtx) arena(bs []dBatch) {
	words := len(c.n)
	mem := make([]uint64, len(bs)*c.live*words)
	for i := range bs {
		for l := 0; l < c.live; l++ {
			bs[i][l], mem = mem[:words:words], mem[words:]
		}
	}
}

// copyLanes copies the live lanes of src into dst's own storage.
func (c *directCtx) copyLanes(dst, src *dBatch) {
	for l := 0; l < c.live; l++ {
		copy(dst[l], src[l])
	}
}

// corrupt exposes the attached Corruptor at a kernel phase boundary: limb
// j of all sixteen lanes — one half of word j/2 — is assembled into one
// vpu.Vec, exactly the lane-transposed register the interpreted kernel
// holds at that point, passed through the injector, and the live lanes
// are written back. Dead lanes read as zero and are never written back,
// so a flip that lands on one is dropped, as the sim's padding-lane
// result is; the injector still sees one full vector per limb per event,
// so corruption-point counts and its RNG draws do not depend on the fill.
// Corruption opportunities are per limb-vector per event here, not per
// instruction as on the sim, so per-instruction fault rates translate
// differently (convert per-pass rates with a counting Corruptor, as the
// fault tests do); detection via the Bellcore check is identical.
func (c *directCtx) corrupt(b *dBatch) {
	fault := c.d.Fault()
	if fault == nil {
		return
	}
	v := &c.vec
	for j := 0; j < c.k; j++ {
		i, sh := j/2, uint(32*(j%2))
		*v = vpu.Vec{}
		for l := 0; l < c.live; l++ {
			v[l] = uint32(b[l][i] >> sh)
		}
		fault.CorruptVec(v)
		for l := 0; l < c.live; l++ {
			b[l][i] = b[l][i]&^(0xffffffff<<sh) | uint64(v[l])<<sh
		}
	}
}

// pack mirrors Ctx.Pack: write the live reduced values into dst's lanes,
// charging one full gather transpose.
func (c *directCtx) pack(dst *dBatch, vals []bn.Nat) {
	for l, v := range vals {
		if v.Cmp(c.modulus) >= 0 {
			panic("vbatch: Pack operand not reduced")
		}
		natWords(dst[l], v)
	}
	c.d.ChargeAt(PhasePack, c.cal.pack)
	c.corrupt(dst)
}

// unpack mirrors Ctx.Unpack: one scatter transpose, then the live lanes'
// values.
func (c *directCtx) unpack(b *dBatch) []bn.Nat {
	c.d.ChargeAt(PhasePack, c.cal.unpack)
	c.corrupt(b)
	out := make([]bn.Nat, c.live)
	for l := range out {
		for j := range c.limbs {
			c.limbs[j] = uint32(b[l][j/2] >> (32 * (j % 2)))
		}
		out[l] = bn.FromLimbs(c.limbs)
	}
	return out
}

// mul is one Montgomery-multiply event: dst = a*b*R^-1 in every live lane
// (dst may alias a or b), plus the calibrated charge of the full
// vectorized multiply.
func (c *directCtx) mul(dst, a, b *dBatch) {
	for l := 0; l < c.live; l++ {
		c.montMul(dst[l], a[l], b[l])
	}
	c.d.ChargePhases(c.cal.mul)
	c.corrupt(dst)
}

// MontMul implements Kernels: pack both operands, multiply, unpack — the
// same event sequence as Ctx.MontMul.
func (c *directCtx) MontMul(a, b []bn.Nat) []bn.Nat {
	mustPair(a, b)
	c.begin(len(a))
	var bs [2]dBatch
	c.arena(bs[:])
	x, y := &bs[0], &bs[1]
	c.pack(x, a)
	c.pack(y, b)
	c.mul(x, x, y)
	return c.unpack(x)
}

// buildTable fills table[i] with the Montgomery form of x^i for the live
// bases x, in the sim's event order: pack, ToMont, One, then one multiply
// per further entry.
func (c *directCtx) buildTable(table []dBatch, bases []bn.Nat) {
	xm := &table[1]
	c.pack(xm, reduce(bases, c.modulus))
	c.mul(xm, xm, &c.rr)
	c.mul(&table[0], &c.rr, &c.one)
	for i := 2; i < len(table); i++ {
		c.mul(&table[i], &table[i-1], xm)
	}
}

// ModExpShared implements Kernels, replaying Ctx.ModExpShared's event
// schedule exactly: same window width, same table build, same squarings,
// same zero-digit multiply skips (the shared exponent makes them
// lane-uniform).
func (c *directCtx) ModExpShared(bases []bn.Nat, exp bn.Nat) []bn.Nat {
	c.begin(len(bases))
	if exp.IsZero() {
		return ones(len(bases), c.modulus)
	}
	w := sharedWindow(exp.BitLen())
	var bs [1<<maxSharedWindow + 1]dBatch
	c.arena(bs[:1<<w+1])
	table, acc := bs[:1<<w], &bs[1<<w]
	c.buildTable(table, bases)

	windows := (exp.BitLen() + w - 1) / w
	c.copyLanes(acc, &table[exp.Bits((windows-1)*w, w)])
	for wi := windows - 2; wi >= 0; wi-- {
		for s := 0; s < w; s++ {
			c.mul(acc, acc, acc)
		}
		if d := exp.Bits(wi*w, w); d != 0 {
			c.mul(acc, acc, &table[d])
		}
	}
	c.mul(acc, acc, &c.one) // FromMont
	return c.unpack(acc)
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
	const w = 4
	var bs [1<<w + 1]dBatch
	c.arena(bs[:])
	table, acc := bs[:1<<w], &bs[1<<w]
	c.buildTable(table, bases)

	// selectEntries points each live lane of sel at table[digit] for
	// window wi, charging the digit load and the masked scan.
	var sel dBatch
	selectEntries := func(wi int) {
		c.d.ChargeAt(PhaseWindow, winDigitCost)
		var digits [BatchSize]uint32
		for l, e := range exps {
			digits[l] = e.Bits(wi*w, w)
		}
		for e := range table {
			c.d.ChargeAt(PhaseWindow, winProbeCost)
			matched := false
			for l, dg := range digits[:c.live] {
				if dg == uint32(e) {
					sel[l] = table[e][l]
					matched = true
				}
			}
			if matched {
				c.d.ChargeAt(PhaseWindow, vpu.Counts{vpu.ClassALU: uint64(c.k)})
			}
		}
	}

	windows := (maxBits + w - 1) / w
	selectEntries(windows - 1)
	c.copyLanes(acc, &sel)
	for wi := windows - 2; wi >= 0; wi-- {
		for s := 0; s < w; s++ {
			c.mul(acc, acc, acc)
		}
		selectEntries(wi)
		c.mul(acc, acc, &sel)
	}
	c.mul(acc, acc, &c.one) // FromMont
	return c.unpack(acc)
}

// montMul writes a*b*R^-1 mod n into out, R = 2^(32k): word-serial CIOS on
// 64-bit words, each step adding a*b[i] and q*n (the quotient q clears the
// low word) and shifting one word out. When k is odd, b's top word holds
// one 32-bit digit, and the last step multiplies by that digit and reduces
// by a 32-bit quotient, shifting out 32 bits: it runs as an ordinary step
// on t<<32 with digit and quotient scaled by 2^32. For reduced inputs the
// result is fully reduced and bit-identical per lane to the interpreted
// kernel; fault-corrupted out-of-range inputs stay well-defined arithmetic
// below 2^(32k) whose garbage the Bellcore check catches. out may alias a
// or b: it is written only after both are read.
func (c *directCtx) montMul(out, a, b []uint64) {
	n, t := c.n, c.t
	last := len(t) - 1
	n, a, b, out = n[:len(t)], a[:len(t)], b[:len(t)], out[:len(t)]
	clear(t)
	var top uint64 // t's bit 64*len(t), 0 or 1
	for i, bi := range b {
		if i == last && c.k%2 == 1 {
			top = t[last] >> 32
			for j := last; j > 0; j-- {
				t[j] = t[j]<<32 | t[j-1]>>32
			}
			t[0] <<= 32
			bi <<= 32
		}
		hi, lo := bits.Mul64(a[0], bi)
		s, cc := bits.Add64(t[0], lo, 0)
		c1 := hi + cc
		q := s * c.n0
		hi, lo = bits.Mul64(n[0], q)
		_, cc = bits.Add64(s, lo, 0)
		c2 := hi + cc
		for j := 1; j < len(t); j++ {
			hi, lo = bits.Mul64(a[j], bi)
			s, cc = bits.Add64(t[j], lo, 0)
			hi += cc
			s, cc = bits.Add64(s, c1, 0)
			c1 = hi + cc
			hi, lo = bits.Mul64(n[j], q)
			s, cc = bits.Add64(s, lo, 0)
			hi += cc
			s, cc = bits.Add64(s, c2, 0)
			c2 = hi + cc
			t[j-1] = s
		}
		s, cc = bits.Add64(top, c1, 0)
		top = cc
		t[last], cc = bits.Add64(s, c2, 0)
		top += cc
	}
	// Subtract n unless that borrows out of top:t, selecting by mask.
	var borrow uint64
	for j := range out {
		out[j], borrow = bits.Sub64(t[j], n[j], borrow)
	}
	keep := -(borrow &^ top)
	for j := range out {
		out[j] ^= (out[j] ^ t[j]) & keep
	}
	out[last] &= c.topMask
}
