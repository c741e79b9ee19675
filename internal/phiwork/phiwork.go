// Package phiwork defines the workload seam of the serving stack: the
// abstraction that lets one batching pipeline — phiserve's streaming
// scheduler, phifleet's routed cards, phiadmit's admission door — serve
// any lane-batchable modular-exponentiation workload, not just RSA
// private operations.
//
// A Workload is the aggregation identity and the execution strategy in
// one value: requests carrying the same Workload (pointer identity) fill
// the same sixteen-lane batch, and when the batch seals, ExecuteBatch
// issues exactly one kernel-pass family on a vpu.Backend. The four
// registered kinds cover the paper's SSL-facing operations, each with a
// distinct cost shape:
//
//   - rsa-priv:  CRT private op, two half-width shared-exponent passes
//     plus the Bellcore re-encryption check (the heaviest).
//   - pss-sign:  the same private-op pass over PSS-encoded reps; the
//     encode (hash/salt/MGF1) happens host-side before submission.
//   - dhe-fixed: g^x with per-lane 256-bit exponents — the server half of
//     ephemeral DH key generation; one multi-exponent pass, ~an order of
//     magnitude cheaper than rsa-priv at equal modulus width.
//   - dhe-var:   peer^x with attacker-supplied bases, validated per lane;
//     same pass shape as dhe-fixed.
//   - public:    m^65537 — verification/encryption lanes; a 17-bit shared
//     exponent makes this the cheap class (ClassLight) that must never
//     queue behind the heavy kinds.
//
// Workload implementations must be pointer types: the scheduler uses the
// interface value as a map key, so two requests batch together exactly
// when they carry the same instance.
package phiwork

import (
	"time"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/engine"
	"phiopenssl/internal/vpu"
)

// Kind names a workload type. The values are the canonical `workload`
// label vocabulary: they appear verbatim in metric labels, journey views
// and incident snapshots, and the phivet metricname/journeyterm analyzers
// reject any constant label or journey note outside this set.
type Kind string

// The canonical workload kinds.
const (
	KindRSAPrivate Kind = "rsa-priv"
	KindDHEFixed   Kind = "dhe-fixed"
	KindDHEVar     Kind = "dhe-var"
	KindPSSSign    Kind = "pss-sign"
	KindPublic     Kind = "public"
)

// Kinds returns the canonical kind list, in registration order. Telemetry
// uses it to pre-register one labeled series per kind so scrapes show
// zeros rather than absent families.
func Kinds() []Kind {
	return []Kind{KindRSAPrivate, KindDHEFixed, KindDHEVar, KindPSSSign, KindPublic}
}

// Class partitions workloads by batch cost so the dispatch tier can keep
// cheap passes out of the heavy queue.
type Class uint8

// The lane classes.
const (
	// ClassHeavy marks full private-op-scale batches (rsa-priv, pss-sign,
	// the DHE kinds): these wait on the card queue's heavy list.
	ClassHeavy Class = iota
	// ClassLight marks cheap public-op batches: they wait on their own
	// list, which a free worker empties before the heavy one, so a flood
	// of heavy batches cannot starve them past their SLO.
	ClassLight
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == ClassLight {
		return "light"
	}
	return "heavy"
}

// Input is one lane's payload. Its meaning is workload-specific:
//
//	rsa-priv:  A = ciphertext c in [0, N)
//	pss-sign:  A = PSS-encoded rep EM in [0, N) (rsakit.EncodePSSSHA256)
//	dhe-fixed: A = private exponent x (nonzero)
//	dhe-var:   A = private exponent x (nonzero), B = peer public in (1, P-1)
//	public:    A = message/signature rep m in [0, N)
type Input struct {
	A bn.Nat
	B bn.Nat
}

// Segment is one named host-wall-time span of a batch pass, for trace
// nesting and journey notes ("crt-exp-p", "exp", "bellcore-verify", ...).
type Segment struct {
	Name string
	Wall time.Duration
}

// Breakdown attributes one batch pass: the instruction deltas it issued on
// the backend (total and per vbatch attribution phase) and the host wall
// time of its major segments. It generalizes rsakit.PassBreakdown across
// workload kinds — the per-phase counts sum to Counts exactly, and the
// segments vary by kind.
type Breakdown struct {
	Phases   [vpu.MaxPhases]vpu.Counts
	Counts   vpu.Counts
	Segments []Segment
}

// Workload is the seam: identity, routing, cost class and the two
// execution strategies (the batched vector pass and the per-op scalar
// fallback used when the vector path is degraded).
type Workload interface {
	// Kind returns the canonical kind string for labels.
	Kind() Kind
	// Class returns the dispatch class (heavy or light).
	Class() Class
	// Tag is the human-readable aggregation identity without a uniqueness
	// suffix ("rsa-2048", "dhe-fixed-modp2048"); journeys and traces carry
	// it so operators can read a batch's shape at a glance.
	Tag() string
	// RouteBytes is the stable routing identity a fleet hashes onto its
	// card ring: the kind plus the modulus bytes, so the same workload
	// instance routes to the same card from any process.
	RouteBytes() []byte
	// Bits is the modulus width — the pass cost's first-order shape.
	Bits() int
	// Validate rejects a lane payload before it is accepted into a batch,
	// so malformed inputs never reach a sealed pass.
	Validate(in Input) error
	// ExecuteBatch runs 1..vbatch.BatchSize lanes as one kernel-pass
	// family on be, returning lane-aligned outputs and per-lane errors
	// (nil entries for clean lanes) plus the pass breakdown. The batch
	// error means no per-lane results exist.
	ExecuteBatch(be vpu.Backend, ins []Input) ([]bn.Nat, []error, *Breakdown, error)
	// ExecuteScalar runs one lane on a scalar engine — the fallback path;
	// it must be bit-identical to the batch path for the same input.
	ExecuteScalar(eng engine.Engine, in Input) (bn.Nat, error)
}

// snapshot captures a backend's meters so a Breakdown can report deltas
// covering exactly one ExecuteBatch (the rsakit traced-batch pattern).
type snapshot struct {
	counts vpu.Counts
	phases [vpu.MaxPhases]vpu.Counts
}

func snap(be vpu.Backend) snapshot {
	return snapshot{counts: be.Counts(), phases: be.PhaseCounts()}
}

func (s snapshot) breakdown(be vpu.Backend, segs []Segment) *Breakdown {
	bd := &Breakdown{Segments: segs}
	cur := be.Counts()
	for i := range cur {
		bd.Counts[i] = cur[i] - s.counts[i]
	}
	curPhases := be.PhaseCounts()
	for p := range curPhases {
		for i := range curPhases[p] {
			bd.Phases[p][i] = curPhases[p][i] - s.phases[p][i]
		}
	}
	return bd
}
