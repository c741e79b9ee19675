package bench

import (
	"fmt"
	"math/rand"

	"phiopenssl/internal/baseline"
	"phiopenssl/internal/bn"
	"phiopenssl/internal/core"
	"phiopenssl/internal/engine"
	"phiopenssl/internal/knc"
	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/rsakit"
	"phiopenssl/internal/vpu"
)

// machine returns the simulated card all experiments report against.
func machine() knc.Machine { return knc.Default() }

// engineSet returns fresh instances of the three engines under test, in
// presentation order.
func engineSet() []engine.Engine {
	return []engine.Engine{
		core.New(),
		baseline.NewOpenSSL(),
		baseline.NewMPSS(),
	}
}

// randBits returns a uniformly random value with exactly `bits` bits.
func randBits(rng *rand.Rand, bits int) bn.Nat {
	nbytes := (bits + 7) / 8
	buf := make([]byte, nbytes)
	rng.Read(buf)
	excess := uint(nbytes*8 - bits)
	buf[0] &= 0xff >> excess
	buf[0] |= 0x80 >> excess
	return bn.FromBytes(buf)
}

// randOdd returns a random odd value with exactly `bits` bits (a stand-in
// modulus).
func randOdd(rng *rand.Rand, bits int) bn.Nat {
	v := randBits(rng, bits)
	w := v.LimbsPadded((bits + 31) / 32)
	w[0] |= 1
	return bn.FromLimbs(w)
}

// operandSizes returns the paper's operand-size grid in bits.
func operandSizes(o Options) []int {
	if o.Quick {
		return []int{512, 1024}
	}
	return []int{512, 1024, 2048, 4096}
}

// keySizes returns the RSA key-size grid.
func keySizes(o Options) []int {
	if o.Quick {
		return []int{512, 1024}
	}
	return []int{1024, 2048, 4096}
}

// measure runs f once against a fresh meter and returns the cycles charged.
func measure(e engine.Engine, f func(engine.Engine)) float64 {
	e.Reset()
	f(e)
	return e.Cycles()
}

// verifiedPassCosts meters one *verified* kernel pass (CRT batch plus the
// Bellcore re-encryption check, the pass the resilient server always
// runs) at every fill count, with ciphertexts drawn from rng. Padding
// makes a pass lane-uniform, but measuring each fill keeps the serving
// simulations honest about it.
func verifiedPassCosts(rng *rand.Rand, key *rsakit.PrivateKey) [phiserve.BatchSize + 1]float64 {
	var costs [phiserve.BatchSize + 1]float64
	for fill := 1; fill <= phiserve.BatchSize; fill++ {
		cs := make([]bn.Nat, fill)
		for l := range cs {
			c, err := bn.RandomRange(rng, bn.One(), key.N)
			if err != nil {
				panic(err)
			}
			cs[l] = c
		}
		u := vpu.New()
		_, laneErrs, err := rsakit.PrivateOpBatchVerifiedN(u, key, cs)
		if err != nil {
			panic(err)
		}
		for l, lerr := range laneErrs {
			if lerr != nil {
				panic(fmt.Sprintf("bench: clean pass failed verification at lane %d: %v", l, lerr))
			}
		}
		costs[fill] = knc.KNCVectorCosts.VectorCycles(u.Counts())
	}
	return costs
}
