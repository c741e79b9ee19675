package phiopenssl

import (
	"phiopenssl/internal/phiadmit"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/rsakit"
)

// Workload is the workload seam of the serving stack: the aggregation
// identity and execution strategy one batching pipeline serves. Requests
// carrying the same Workload instance fill the same sixteen-lane batch;
// the batch executes as one kernel-pass family. BatchServer, Fleet and
// AdmissionController all accept any Workload via SubmitWork/DoWork, their
// one submission path; RSAPrivateWorkload(key) is the classic decryption
// traffic. See internal/phiwork and experiment A11.
type Workload = phiwork.Workload

// WorkloadInput is one lane's payload; its meaning is workload-specific
// (ciphertext for rsa-priv, PSS-encoded rep for pss-sign, exponent and
// optional peer public for the DHE kinds, message rep for public).
type WorkloadInput = phiwork.Input

// WorkloadKind names a workload type. The values are the canonical
// `workload` label vocabulary used in metrics, journeys and incidents.
type WorkloadKind = phiwork.Kind

// The canonical workload kinds.
const (
	// WorkloadRSAPrivate is the CRT private op with Bellcore verification
	// (decrypt/sign-shaped traffic; the heaviest class).
	WorkloadRSAPrivate = phiwork.KindRSAPrivate
	// WorkloadDHEFixed is g^x with per-lane ephemeral exponents — the
	// server half of DHE key generation.
	WorkloadDHEFixed = phiwork.KindDHEFixed
	// WorkloadDHEVar is peer^x with validated peer publics — the DHE
	// shared-secret half.
	WorkloadDHEVar = phiwork.KindDHEVar
	// WorkloadPSSSign is the private op over host-side PSS-encoded reps
	// (EncodePSSSHA256 shapes the input).
	WorkloadPSSSign = phiwork.KindPSSSign
	// WorkloadPublic is m^65537 — the cheap verify/encrypt class, whose
	// batches workers take before any heavy batch.
	WorkloadPublic = phiwork.KindPublic
)

// WorkloadKinds returns the canonical kind list in registration order.
func WorkloadKinds() []WorkloadKind { return phiwork.Kinds() }

// RSAPrivateWorkload returns the canonical rsa-priv workload for key:
// every call with the same key returns the same instance, so their
// requests fill the same batches.
func RSAPrivateWorkload(key *PrivateKey) Workload { return phiwork.RSAPrivateFor(key) }

// PSSSignWorkload returns the canonical pss-sign workload for key — a
// distinct instance from RSAPrivateWorkload(key), so signing and
// decryption traffic on one key aggregate, route and meter separately.
func PSSSignWorkload(key *PrivateKey) Workload { return phiwork.PSSSignFor(key) }

// RSAPublicWorkload returns the canonical light public-op workload for
// pub.
func RSAPublicWorkload(pub *PublicKey) Workload { return phiwork.RSAPublicFor(pub) }

// DHEFixedWorkload returns the canonical fixed-base (g^x) workload for
// the group.
func DHEFixedWorkload(g DHGroup) Workload { return phiwork.DHEFixedFor(g) }

// DHEVarWorkload returns the canonical variable-base (peer^x) workload
// for the group.
func DHEVarWorkload(g DHGroup) Workload { return phiwork.DHEVarFor(g) }

// EncodePSSSHA256 is the host-side half of a PSS signature — hashing,
// salting and MGF1 masking over emBits bits (use key.N.BitLen()-1) —
// producing the encoded rep a pss-sign lane exponentiates.
var EncodePSSSHA256 = rsakit.EncodePSSSHA256

// VerifyPSSSHA256 checks a PSS signature (e.g. a pss-sign lane's result,
// serialized with Nat.Bytes) against msg under pub.
var VerifyPSSSHA256 = rsakit.VerifyPSSSHA256

// ErrWorkloadDenied rejects a request whose workload kind is outside its
// tenant's allow-list (AdmissionTenant.Workloads); the door refuses it
// before any other admission decision.
var ErrWorkloadDenied = phiadmit.ErrWorkloadDenied
