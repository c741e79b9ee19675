// Package core implements the PhiOpenSSL engine — the paper's primary
// contribution. It executes all big-integer multiplications and Montgomery
// operations on the simulated KNC vector unit (internal/vpu via
// internal/vmont) and exponentiates with constant-time fixed windows
// (internal/modexp), the combination the paper selects for the Phi's wide
// SIMD and in-order pipeline.
//
// The engine meters every vector instruction it issues and converts the
// counts to simulated cycles with the KNC vector cost table, making it
// directly comparable with the scalar baselines in internal/baseline.
package core

import (
	"phiopenssl/internal/bn"
	"phiopenssl/internal/engine"
	"phiopenssl/internal/knc"
	"phiopenssl/internal/modexp"
	"phiopenssl/internal/vmont"
	"phiopenssl/internal/vpu"
)

// Option configures an Engine.
type Option func(*Engine)

// WithWindow sets the fixed-window width (default: chosen per exponent
// size with modexp.OptimalWindow).
func WithWindow(w int) Option {
	return func(e *Engine) { e.window = w }
}

// WithConstTime toggles the constant-time table scan (default on — the
// paper keeps OpenSSL's private-key hardening).
func WithConstTime(ct bool) Option {
	return func(e *Engine) { e.constTime = ct }
}

// WithVectorCosts overrides the vector cost table (used by calibration
// tests).
func WithVectorCosts(t knc.VectorCostTable) Option {
	return func(e *Engine) { e.costs = t }
}

// Engine is the PhiOpenSSL vectorized engine. Not safe for concurrent use;
// create one per simulated hardware thread.
type Engine struct {
	unit      *vpu.Unit
	costs     knc.VectorCostTable
	window    int // 0 = auto
	constTime bool
	ctxs      map[string]*vmont.Ctx
}

var _ engine.Engine = (*Engine)(nil)

// New returns a PhiOpenSSL engine on a fresh simulated vector unit.
func New(opts ...Option) *Engine {
	e := &Engine{
		unit:      vpu.New(),
		costs:     knc.KNCVectorCosts,
		constTime: true,
		ctxs:      make(map[string]*vmont.Ctx),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "PhiOpenSSL" }

// Cycles implements engine.Engine.
func (e *Engine) Cycles() float64 { return e.costs.VectorCycles(e.unit.Counts()) }

// Reset implements engine.Engine.
func (e *Engine) Reset() { e.unit.Reset() }

// Unit exposes the engine's vector unit for instruction-mix inspection.
func (e *Engine) Unit() *vpu.Unit { return e.unit }

// ctx returns the cached vector Montgomery context for n, creating it on
// first use (the per-modulus precomputation an OpenSSL BN_MONT_CTX caches).
func (e *Engine) ctx(n bn.Nat) *vmont.Ctx {
	key := n.Hex()
	if c, ok := e.ctxs[key]; ok {
		return c
	}
	c, err := vmont.NewCtx(n, e.unit)
	if err != nil {
		panic("core: " + err.Error())
	}
	e.ctxs[key] = c
	return c
}

// Mul implements engine.Engine with the vectorized schoolbook kernel.
func (e *Engine) Mul(a, b bn.Nat) bn.Nat {
	if a.IsZero() || b.IsZero() {
		return bn.Zero()
	}
	return bn.FromLimbs(vmont.VecMul(e.unit, a.Limbs(), b.Limbs()))
}

// MulMod implements engine.Engine with one vectorized Montgomery
// multiplication (plus domain conversions).
func (e *Engine) MulMod(a, b, n bn.Nat) bn.Nat {
	c := e.ctx(n)
	return c.FromMont(c.Mul(c.ToMont(a), c.ToMont(b)))
}

// ModExp implements engine.Engine with constant-time fixed-window
// exponentiation over the vector Montgomery kernel.
func (e *Engine) ModExp(base, exp, n bn.Nat) bn.Nat {
	w := e.window
	if w == 0 {
		w = modexp.OptimalWindow(exp.BitLen())
	}
	return modexp.FixedWindow(e.ctx(n), base, exp, w, e.constTime)
}
