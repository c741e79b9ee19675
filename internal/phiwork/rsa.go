package phiwork

import (
	"fmt"
	"strconv"
	"time"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/engine"
	"phiopenssl/internal/rsakit"
	"phiopenssl/internal/vpu"
)

// The RSA-keyed workloads: the original private op, PSS signing (the same
// pass over pre-encoded reps) and the cheap public op.

// routeBytes builds the stable ring identity: the kind string, a zero
// separator, then the modulus bytes.
func routeBytes(kind Kind, n bn.Nat) []byte {
	nb := n.Bytes()
	out := make([]byte, 0, len(kind)+1+len(nb))
	out = append(out, kind...)
	out = append(out, 0)
	out = append(out, nb...)
	return out
}

// bitsTag returns tag, the tag a constructor built once, or builds
// prefix-<modulus bits> when tag is unset (a struct literal).
func bitsTag(tag, prefix string, n bn.Nat) string {
	if tag != "" {
		return tag
	}
	return prefix + "-" + strconv.Itoa(n.BitLen())
}

// crtSegments converts a rsakit.PassBreakdown's wall times into the
// generic segment list, keeping the PR 3 trace segment names.
func crtSegments(bd *rsakit.PassBreakdown) []Segment {
	return []Segment{
		{Name: "crt-exp-p", Wall: bd.ExpPWall},
		{Name: "crt-exp-q", Wall: bd.ExpQWall},
		{Name: "crt-recombine", Wall: bd.RecombineWall},
		{Name: "bellcore-verify", Wall: bd.VerifyWall},
	}
}

// executePrivateBatch is the shared heavy path of rsa-priv and pss-sign:
// the Bellcore-verified CRT batch, with the rsakit breakdown lifted into
// the generic form.
func executePrivateBatch(be vpu.Backend, key *rsakit.PrivateKey, ins []Input) ([]bn.Nat, []error, *Breakdown, error) {
	cs := make([]bn.Nat, len(ins))
	for i, in := range ins {
		cs[i] = in.A
	}
	out, laneErrs, pbd, err := rsakit.PrivateOpBatchVerifiedTraced(be, key, cs)
	if err != nil {
		return nil, nil, nil, err
	}
	bd := &Breakdown{Phases: pbd.Phases, Counts: pbd.Counts, Segments: crtSegments(pbd)}
	return out, laneErrs, bd, nil
}

// RSAPrivate is the original serving workload: c^D mod N with CRT and the
// Bellcore re-encryption check, semantics unchanged from the RSA-only
// pipeline.
type RSAPrivate struct {
	Key *rsakit.PrivateKey
	tag string
}

// NewRSAPrivate wraps key as a workload.
func NewRSAPrivate(key *rsakit.PrivateKey) *RSAPrivate {
	return &RSAPrivate{Key: key, tag: bitsTag("", "rsa", key.N)}
}

// Kind implements Workload.
func (w *RSAPrivate) Kind() Kind { return KindRSAPrivate }

// Class implements Workload.
func (w *RSAPrivate) Class() Class { return ClassHeavy }

// Tag implements Workload.
func (w *RSAPrivate) Tag() string { return bitsTag(w.tag, "rsa", w.Key.N) }

// RouteBytes implements Workload.
func (w *RSAPrivate) RouteBytes() []byte { return routeBytes(KindRSAPrivate, w.Key.N) }

// Bits implements Workload.
func (w *RSAPrivate) Bits() int { return w.Key.N.BitLen() }

// Validate implements Workload.
func (w *RSAPrivate) Validate(in Input) error {
	if in.A.Cmp(w.Key.N) >= 0 {
		return fmt.Errorf("phiwork: ciphertext out of range")
	}
	return nil
}

// ExecuteBatch implements Workload.
func (w *RSAPrivate) ExecuteBatch(be vpu.Backend, ins []Input) ([]bn.Nat, []error, *Breakdown, error) {
	return executePrivateBatch(be, w.Key, ins)
}

// ExecuteScalar implements Workload: the non-CRT verified op — the exact
// configuration the resilience fallback has always used, immune to the
// Boneh-DeMillo-Lipton fault by construction and self-checked.
func (w *RSAPrivate) ExecuteScalar(eng engine.Engine, in Input) (bn.Nat, error) {
	return rsakit.PrivateOp(eng, w.Key, in.A, rsakit.PrivateOpts{UseCRT: false, Verify: true})
}

// PSSSign signs PSS-encoded reps: the submitter hashes and salts host-side
// (rsakit.EncodePSSSHA256) and the pipeline batches the private
// exponentiations. Identical pass shape to RSAPrivate; it is a separate
// kind so signing traffic aggregates, routes and meters apart from
// decryption traffic on the same key.
type PSSSign struct {
	Key *rsakit.PrivateKey
	tag string
}

// NewPSSSign wraps key as a signing workload.
func NewPSSSign(key *rsakit.PrivateKey) *PSSSign {
	return &PSSSign{Key: key, tag: bitsTag("", "pss", key.N)}
}

// Kind implements Workload.
func (w *PSSSign) Kind() Kind { return KindPSSSign }

// Class implements Workload.
func (w *PSSSign) Class() Class { return ClassHeavy }

// Tag implements Workload.
func (w *PSSSign) Tag() string { return bitsTag(w.tag, "pss", w.Key.N) }

// RouteBytes implements Workload.
func (w *PSSSign) RouteBytes() []byte { return routeBytes(KindPSSSign, w.Key.N) }

// Bits implements Workload.
func (w *PSSSign) Bits() int { return w.Key.N.BitLen() }

// Validate implements Workload. The encoded rep is < 2^(N.BitLen()-1) by
// construction; anything >= N is malformed.
func (w *PSSSign) Validate(in Input) error {
	if in.A.Cmp(w.Key.N) >= 0 {
		return fmt.Errorf("phiwork: PSS encoded rep out of range")
	}
	return nil
}

// ExecuteBatch implements Workload.
func (w *PSSSign) ExecuteBatch(be vpu.Backend, ins []Input) ([]bn.Nat, []error, *Breakdown, error) {
	return executePrivateBatch(be, w.Key, ins)
}

// ExecuteScalar implements Workload.
func (w *PSSSign) ExecuteScalar(eng engine.Engine, in Input) (bn.Nat, error) {
	return rsakit.PrivateOp(eng, w.Key, in.A, rsakit.PrivateOpts{UseCRT: false, Verify: true})
}

// RSAPublic is the cheap lane class: m^E mod N with E = 65537 — signature
// verification and OAEP/PKCS1 encryption. ClassLight: workers take its
// batches before any heavy one, so private-op floods cannot starve it.
type RSAPublic struct {
	Key *rsakit.PublicKey
	tag string
}

// NewRSAPublic wraps pub as a workload.
func NewRSAPublic(pub *rsakit.PublicKey) *RSAPublic {
	return &RSAPublic{Key: pub, tag: bitsTag("", "pub", pub.N)}
}

// Kind implements Workload.
func (w *RSAPublic) Kind() Kind { return KindPublic }

// Class implements Workload.
func (w *RSAPublic) Class() Class { return ClassLight }

// Tag implements Workload.
func (w *RSAPublic) Tag() string { return bitsTag(w.tag, "pub", w.Key.N) }

// RouteBytes implements Workload.
func (w *RSAPublic) RouteBytes() []byte { return routeBytes(KindPublic, w.Key.N) }

// Bits implements Workload.
func (w *RSAPublic) Bits() int { return w.Key.N.BitLen() }

// Validate implements Workload.
func (w *RSAPublic) Validate(in Input) error {
	if in.A.Cmp(w.Key.N) >= 0 {
		return fmt.Errorf("phiwork: message out of range")
	}
	return nil
}

// ExecuteBatch implements Workload.
func (w *RSAPublic) ExecuteBatch(be vpu.Backend, ins []Input) ([]bn.Nat, []error, *Breakdown, error) {
	ms := make([]bn.Nat, len(ins))
	for i, in := range ins {
		ms[i] = in.A
	}
	s := snap(be)
	start := time.Now()
	out, err := rsakit.PublicOpBatchN(be, w.Key, ms)
	if err != nil {
		return nil, nil, nil, err
	}
	bd := s.breakdown(be, []Segment{{Name: "exp", Wall: time.Since(start)}})
	return out, make([]error, len(ins)), bd, nil
}

// ExecuteScalar implements Workload.
func (w *RSAPublic) ExecuteScalar(eng engine.Engine, in Input) (bn.Nat, error) {
	return rsakit.PublicOp(eng, w.Key, in.A)
}
