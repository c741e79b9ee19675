// Package phiopenssl is a from-scratch Go reproduction of "PhiOpenSSL:
// Using the Xeon Phi Coprocessor for Efficient Cryptographic Calculations"
// (Yao & Yu, IPDPS 2017).
//
// The library provides three interchangeable big-number engines — the
// vectorized PhiOpenSSL engine running on a simulated Knights Corner
// 512-bit vector unit, and two scalar baselines modeling default OpenSSL
// and MPSS libcrypto on the KNC scalar pipeline — plus RSA (keygen, CRT
// private operations, PKCS#1 v1.5) and a minimal TLS-RSA handshake
// substrate built on them. Every engine meters the simulated KNC cycles it
// spends, which is how the package reproduces the paper's performance
// comparisons without Xeon Phi hardware.
//
// Quick start:
//
//	eng := phiopenssl.NewEngine(phiopenssl.EnginePhi)
//	key, _ := phiopenssl.GenerateKey(rand.Reader, 2048)
//	sig, _ := phiopenssl.SignPKCS1v15SHA256(eng, key, msg, phiopenssl.DefaultPrivateOpts())
//	fmt.Printf("simulated: %.2f ms on the Phi\n",
//	    1e3*phiopenssl.DefaultMachine().Seconds(eng.Cycles()))
//
// See examples/ for runnable programs and cmd/phibench for the harness
// that regenerates the paper's tables and figures.
package phiopenssl

import (
	"io"

	"phiopenssl/internal/baseline"
	"phiopenssl/internal/bn"
	"phiopenssl/internal/core"
	"phiopenssl/internal/engine"
	"phiopenssl/internal/knc"
	"phiopenssl/internal/rsakit"
)

// Engine is a big-number engine with a simulated-cycle meter. See
// NewEngine.
type Engine = engine.Engine

// EngineKind selects one of the three implementations under test.
type EngineKind int

// Engine kinds.
const (
	// EnginePhi is the paper's contribution: vectorized Montgomery
	// arithmetic with constant-time fixed-window exponentiation on the
	// simulated KNC vector unit.
	EnginePhi EngineKind = iota
	// EngineOpenSSL is the "default OpenSSL" scalar baseline.
	EngineOpenSSL
	// EngineMPSS is the "MPSS libcrypto" scalar baseline.
	EngineMPSS
	// EngineHost is the host-Xeon reference (OpenSSL's optimized x86-64
	// paths on the machine the coprocessor plugs into); pair its cycles
	// with HostMachine(), not DefaultMachine().
	EngineHost
)

// String implements fmt.Stringer.
func (k EngineKind) String() string {
	switch k {
	case EnginePhi:
		return "PhiOpenSSL"
	case EngineOpenSSL:
		return "OpenSSL-default"
	case EngineMPSS:
		return "MPSS-libcrypto"
	case EngineHost:
		return "Host-OpenSSL"
	default:
		return "unknown"
	}
}

// NewEngine returns a fresh engine of the given kind. Engines are not safe
// for concurrent use; create one per goroutine (as each Phi hardware thread
// owns one in the paper's setup).
func NewEngine(kind EngineKind) Engine {
	switch kind {
	case EnginePhi:
		return core.New()
	case EngineOpenSSL:
		return baseline.NewOpenSSL()
	case EngineMPSS:
		return baseline.NewMPSS()
	case EngineHost:
		return baseline.NewHost()
	default:
		panic("phiopenssl: unknown engine kind")
	}
}

// NewPhiEngine returns a PhiOpenSSL engine with explicit tuning knobs:
// fixed-window width w (0 = auto per exponent size) and constant-time
// table scanning.
func NewPhiEngine(window int, constTime bool) Engine {
	return core.New(core.WithWindow(window), core.WithConstTime(constTime))
}

// Nat is an arbitrary-precision natural number (see internal/bn).
type Nat = bn.Nat

// Number constructors, re-exported from the big-number substrate.
var (
	// NatFromBytes parses an unsigned big-endian integer.
	NatFromBytes = bn.FromBytes
	// NatFromUint64 converts a uint64.
	NatFromUint64 = bn.FromUint64
	// NatFromHex parses a hexadecimal string.
	NatFromHex = bn.FromHex
)

// Machine describes the simulated coprocessor (topology, clock).
type Machine = knc.Machine

// DefaultMachine returns the Xeon Phi 7120-class card the reproduction
// simulates (61 cores x 4 threads at 1.238 GHz).
func DefaultMachine() Machine { return knc.Default() }

// HostMachine returns the simulated dual-socket host Xeon used by the
// coprocessor-vs-host comparison (EngineHost cycles convert to time on
// this machine).
func HostMachine() Machine { return knc.Host() }

// RSA types and operations, re-exported from internal/rsakit.
type (
	// PublicKey is an RSA public key.
	PublicKey = rsakit.PublicKey
	// PrivateKey is an RSA private key with CRT parameters.
	PrivateKey = rsakit.PrivateKey
	// PrivateOpts configures private-key operations (CRT, blinding).
	PrivateOpts = rsakit.PrivateOpts
)

// GenerateKey generates an RSA key with the given modulus size in bits.
func GenerateKey(rng io.Reader, bits int) (*PrivateKey, error) {
	return rsakit.GenerateKey(rng, bits)
}

// DefaultPrivateOpts returns the paper's private-op configuration (CRT on,
// blinding off).
func DefaultPrivateOpts() PrivateOpts { return rsakit.DefaultPrivateOpts() }

// RSA primitives and PKCS#1 v1.5 operations. Each takes the engine that
// performs the big-number arithmetic and charges its meter.
var (
	// RSAPublic computes m^E mod N.
	RSAPublic = rsakit.PublicOp
	// RSAPrivate computes c^D mod N with the options' CRT/blinding.
	RSAPrivate = rsakit.PrivateOp
	// EncryptPKCS1v15 encrypts with type-2 padding.
	EncryptPKCS1v15 = rsakit.EncryptPKCS1v15
	// DecryptPKCS1v15 decrypts a type-2-padded ciphertext.
	DecryptPKCS1v15 = rsakit.DecryptPKCS1v15
	// SignPKCS1v15SHA256 signs a message (SHA-256 + type-1 padding).
	SignPKCS1v15SHA256 = rsakit.SignPKCS1v15SHA256
	// VerifyPKCS1v15SHA256 verifies such a signature.
	VerifyPKCS1v15SHA256 = rsakit.VerifyPKCS1v15SHA256
	// MarshalPrivateKey serializes a private key.
	MarshalPrivateKey = rsakit.MarshalPrivate
	// UnmarshalPrivateKey parses and validates a private key.
	UnmarshalPrivateKey = rsakit.UnmarshalPrivate
	// MarshalPublicKey serializes a public key.
	MarshalPublicKey = rsakit.MarshalPublic
	// UnmarshalPublicKey parses a public key.
	UnmarshalPublicKey = rsakit.UnmarshalPublic
)
