package phiopenssl

import "phiopenssl/internal/phipool"

// Pool executes independent jobs across simulated Phi hardware threads,
// one private engine per worker, and reports aggregate simulated
// throughput (see internal/phipool).
type Pool = phipool.Pool

// PoolReport summarizes one Pool.Run.
type PoolReport = phipool.Report

// NewPool creates a pool of `threads` simulated hardware threads on mach
// (clamped to the machine's capacity). newEngine is called once per
// worker.
func NewPool(mach Machine, threads int, newEngine func() Engine) (*Pool, error) {
	return phipool.New(mach, threads, newEngine)
}
