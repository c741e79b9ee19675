// Package baseline implements the two reference libcrypto engines the
// paper compares PhiOpenSSL against, both running the scalar algorithms of
// OpenSSL's generic C big-number code on the simulated KNC scalar pipeline:
//
//   - "OpenSSL-default": libcrypto as built from the default OpenSSL
//     source for the KNC target (no assembly paths exist for k1om).
//   - "MPSS-libcrypto": the libcrypto shipped with Intel's Many-core
//     Platform Software Stack, same generic algorithms compiled with the
//     Intel toolchain.
//
// Both use the word-serial CIOS Montgomery kernel (internal/mont) and
// OpenSSL's sliding-window BN_mod_exp_mont schedule. They differ only in
// their scalar cost tables (internal/knc), reflecting the two compilers'
// scheduling of the in-order scalar pipe. Arithmetic results are produced
// by the shared reference implementation and are bit-identical to
// PhiOpenSSL's; only the charged cycle counts differ.
package baseline

import (
	"phiopenssl/internal/bn"
	"phiopenssl/internal/engine"
	"phiopenssl/internal/knc"
	"phiopenssl/internal/modexp"
	"phiopenssl/internal/mont"
)

// Engine is one scalar baseline. Not safe for concurrent use.
type Engine struct {
	name   string
	counts knc.ScalarCounts
	costs  knc.ScalarCostTable
	ctxs   map[string]*mont.Ctx
	// host marks the host-Xeon reference engine: its caches hide the
	// working set, so no L1-pressure memory weighting applies.
	host bool
}

var _ engine.Engine = (*Engine)(nil)

// NewOpenSSL returns the "default OpenSSL" baseline.
func NewOpenSSL() *Engine {
	return &Engine{name: "OpenSSL-default", costs: knc.OpenSSLScalarCosts,
		ctxs: make(map[string]*mont.Ctx)}
}

// NewMPSS returns the "MPSS libcrypto" baseline.
func NewMPSS() *Engine {
	return &Engine{name: "MPSS-libcrypto", costs: knc.MPSSScalarCosts,
		ctxs: make(map[string]*mont.Ctx)}
}

// NewHost returns the host-Xeon reference engine (OpenSSL's optimized
// x86-64 paths on the machine the coprocessor plugs into) for the A5
// coprocessor-vs-host comparison. Pair its cycle counts with
// knc.Host(), not the Phi machine.
func NewHost() *Engine {
	return &Engine{name: "Host-OpenSSL", costs: knc.HostScalarCosts,
		ctxs: make(map[string]*mont.Ctx), host: true}
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return e.name }

// Cycles implements engine.Engine.
func (e *Engine) Cycles() float64 { return e.costs.ScalarCycles(e.counts) }

// Reset implements engine.Engine.
func (e *Engine) Reset() { e.counts = knc.ScalarCounts{} }

// Counts exposes the raw op counts for instruction-mix inspection.
func (e *Engine) Counts() knc.ScalarCounts { return e.counts }

// ctx returns the cached Montgomery context for n (the BN_MONT_CTX cache).
func (e *Engine) ctx(n bn.Nat) *mont.Ctx {
	key := n.Hex()
	if c, ok := e.ctxs[key]; ok {
		return c
	}
	c, err := mont.NewCtx(n, &e.counts)
	if err != nil {
		panic("baseline: " + err.Error())
	}
	if !e.host {
		c.SetMemWeight(knc.MemWeightForLimbs(c.K()))
	}
	e.ctxs[key] = c
	return c
}

// Mul implements engine.Engine. The value is computed by the reference
// big-number library; the charged cost follows OpenSSL's generic
// schoolbook/Karatsuba schedule (see mulOpModel).
func (e *Engine) Mul(a, b bn.Nat) bn.Nat {
	mulOpModel(a.LimbLen(), b.LimbLen(), &e.counts)
	return a.Mul(b)
}

// MulMod implements engine.Engine with one scalar CIOS Montgomery
// multiplication, metered in-kernel.
func (e *Engine) MulMod(a, b, n bn.Nat) bn.Nat {
	c := e.ctx(n)
	return c.FromMont(c.Mul(c.ToMont(a), c.ToMont(b)))
}

// ModExp implements engine.Engine with OpenSSL's sliding-window
// BN_mod_exp_mont schedule over the scalar CIOS kernel.
func (e *Engine) ModExp(base, exp, n bn.Nat) bn.Nat {
	return modexp.SlidingWindow(e.ctx(n), base, exp, modexp.WindowBitsForExponent(exp.BitLen()))
}

// karatsubaLimbs is the operand size (in 32-bit limbs) above which generic
// OpenSSL switches from comba/schoolbook to Karatsuba (BN_MULL_SIZE_NORMAL
// = 16 BN_ULONGs = 64 of our limbs).
const karatsubaLimbs = 64

// mulOpModel charges counts for one ka x kb limb multiplication following
// the generic OpenSSL schedule: schoolbook below the Karatsuba threshold,
// the three-half-sized-products recursion above it. Memory traffic is one
// operand read per multiply-accumulate plus result writes; the combination
// adds are charged per limb.
func mulOpModel(ka, kb int, c *knc.ScalarCounts) {
	if ka == 0 || kb == 0 {
		return
	}
	if ka < kb {
		ka, kb = kb, ka
	}
	if kb < karatsubaLimbs {
		n := uint64(ka) * uint64(kb)
		w := knc.MemWeightForLimbs(kb)
		c.Tick(knc.OpMulAdd32, n)
		c.Tick(knc.OpMem, uint64(float64(n+uint64(2*(ka+kb)))*w+0.5))
		c.Tick(knc.OpAdd32, uint64(ka+kb))
		c.Tick(knc.OpMisc, uint64(kb))
		return
	}
	m := (ka + 1) / 2
	// z0 = a0*b0, z2 = a1*b1, z1 via (a0+a1)(b0+b1) - z0 - z2.
	mulOpModel(m, minInt(m, kb), c)
	mulOpModel(ka-m, maxInt(kb-m, 0), c)
	mulOpModel(m+1, minInt(m, kb)+1, c)
	// Operand sums, the two subtractions and the shifted additions.
	c.Tick(knc.OpAdd32, uint64(8*m))
	c.Tick(knc.OpMem, uint64(8*m))
	c.Tick(knc.OpMisc, 4)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
