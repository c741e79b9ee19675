package phiwork

import (
	"fmt"
	"time"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/dh"
	"phiopenssl/internal/engine"
	"phiopenssl/internal/vpu"
)

// The Diffie-Hellman workloads. Both run the multi-exponent kernel
// schedule (per-lane 256-bit exponents), so a full batch costs roughly the
// exponent-bits/modulus-bits fraction of an RSA private pass at the same
// width — a distinct cost shape the scheduler's EWMA and the fleet's
// delay-aware routing see per workload. Neither runs a Bellcore pass:
// there is no CRT decomposition, so a computational fault cannot leak key
// material the way it does for CRT-RSA — a corrupted public value or
// shared secret only fails the handshake it belongs to.

// groupRouteBytes is routeBytes over a DH group's modulus.
func groupRouteBytes(kind Kind, g dh.Group) []byte {
	return routeBytes(kind, g.P)
}

// groupTag is bitsTag for the DH kinds: prefix + the group's name.
func groupTag(tag, prefix string, g dh.Group) string {
	if tag != "" {
		return tag
	}
	return prefix + g.Name
}

// DHEFixed computes g^x mod P for per-lane ephemeral exponents — the
// server-side key-generation half of a DHE handshake.
type DHEFixed struct {
	Group dh.Group
	tag   string
}

// NewDHEFixed wraps g as a fixed-base workload.
func NewDHEFixed(g dh.Group) *DHEFixed {
	return &DHEFixed{Group: g, tag: groupTag("", "dhe-fixed-", g)}
}

// Kind implements Workload.
func (w *DHEFixed) Kind() Kind { return KindDHEFixed }

// Class implements Workload.
func (w *DHEFixed) Class() Class { return ClassHeavy }

// Tag implements Workload.
func (w *DHEFixed) Tag() string { return groupTag(w.tag, "dhe-fixed-", w.Group) }

// RouteBytes implements Workload.
func (w *DHEFixed) RouteBytes() []byte { return groupRouteBytes(KindDHEFixed, w.Group) }

// Bits implements Workload.
func (w *DHEFixed) Bits() int { return w.Group.P.BitLen() }

// Validate implements Workload.
func (w *DHEFixed) Validate(in Input) error {
	if in.A.IsZero() {
		return fmt.Errorf("phiwork: zero DH exponent")
	}
	return nil
}

// ExecuteBatch implements Workload.
func (w *DHEFixed) ExecuteBatch(be vpu.Backend, ins []Input) ([]bn.Nat, []error, *Breakdown, error) {
	xs := make([]bn.Nat, len(ins))
	for i, in := range ins {
		xs[i] = in.A
	}
	s := snap(be)
	start := time.Now()
	out, err := dh.FixedBaseBatchN(be, w.Group, xs)
	if err != nil {
		return nil, nil, nil, err
	}
	bd := s.breakdown(be, []Segment{{Name: "exp", Wall: time.Since(start)}})
	return out, make([]error, len(ins)), bd, nil
}

// ExecuteScalar implements Workload.
func (w *DHEFixed) ExecuteScalar(eng engine.Engine, in Input) (bn.Nat, error) {
	if in.A.IsZero() {
		return bn.Nat{}, fmt.Errorf("phiwork: zero DH exponent")
	}
	return eng.ModExp(w.Group.G.Mod(w.Group.P), in.A, w.Group.P), nil
}

// DHEVar computes peer^x mod P for attacker-supplied peer publics — the
// shared-secret half of a DHE handshake. Every lane is validated before
// the pass and its secret checked for degeneracy after, mirroring scalar
// dh.SharedSecret.
type DHEVar struct {
	Group dh.Group
	tag   string
}

// NewDHEVar wraps g as a variable-base workload.
func NewDHEVar(g dh.Group) *DHEVar {
	return &DHEVar{Group: g, tag: groupTag("", "dhe-var-", g)}
}

// Kind implements Workload.
func (w *DHEVar) Kind() Kind { return KindDHEVar }

// Class implements Workload.
func (w *DHEVar) Class() Class { return ClassHeavy }

// Tag implements Workload.
func (w *DHEVar) Tag() string { return groupTag(w.tag, "dhe-var-", w.Group) }

// RouteBytes implements Workload.
func (w *DHEVar) RouteBytes() []byte { return groupRouteBytes(KindDHEVar, w.Group) }

// Bits implements Workload.
func (w *DHEVar) Bits() int { return w.Group.P.BitLen() }

// Validate implements Workload.
func (w *DHEVar) Validate(in Input) error {
	if in.A.IsZero() {
		return fmt.Errorf("phiwork: zero DH exponent")
	}
	return dh.CheckPublic(w.Group, in.B)
}

// ExecuteBatch implements Workload.
func (w *DHEVar) ExecuteBatch(be vpu.Backend, ins []Input) ([]bn.Nat, []error, *Breakdown, error) {
	xs := make([]bn.Nat, len(ins))
	peers := make([]bn.Nat, len(ins))
	for i, in := range ins {
		xs[i] = in.A
		peers[i] = in.B
	}
	s := snap(be)
	start := time.Now()
	out, laneErrs, err := dh.SharedSecretBatchN(be, w.Group, xs, peers)
	if err != nil {
		return nil, nil, nil, err
	}
	bd := s.breakdown(be, []Segment{{Name: "exp", Wall: time.Since(start)}})
	return out, laneErrs, bd, nil
}

// ExecuteScalar implements Workload.
func (w *DHEVar) ExecuteScalar(eng engine.Engine, in Input) (bn.Nat, error) {
	if in.A.IsZero() {
		return bn.Nat{}, fmt.Errorf("phiwork: zero DH exponent")
	}
	kp := &dh.KeyPair{Group: w.Group, Private: in.A}
	return dh.SharedSecret(eng, kp, in.B)
}
