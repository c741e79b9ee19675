// Command perfbench is the serving benchmark. It drives the offload stack —
// phiadmit -> phifleet -> phiserve -> phipool -> phiwork kernels — with one
// of four seeded workloads, checks every output bit for bit against the
// scalar baseline engine, and prints either the end-to-end metrics of an
// untraced run (-trace 0) or the per-layer metrics of a traced run
// (-trace 1). Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload rsa2048-closed --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero on any
// wrong output, a failed stage-sum check or a run too short for its p99.
package main

import (
	"bufio"
	"crypto"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"phiopenssl/internal/baseline"
	"phiopenssl/internal/bench"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/vpu"
)

// ramp is the unmeasured load before each timed window.
const ramp = time.Second

// setups is how many times a run sets up; setup_s is their median, so
// work moved into set-up shows without one slow set-up deciding it.
const setups = 3

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceOut string
}

// result is the benchmark's verdict line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: rsa2048-closed, public2048-open, blend1024-overload, blend1024-storm")
	flag.Int64Var(&o.seed, "seed", 1, "input and arrival seed")
	flag.IntVar(&o.seconds, "seconds", 30, "timed window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.traceOut, "trace-out", "", "directory for the traced run's spans (empty: not written)")
	flag.Parse()
	o.trace = traceFlag == 1
	runtime.GOMAXPROCS(2)
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run, writing the human-readable report to out.
func run(o options, out io.Writer) (*result, error) {
	sp, err := specByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	window := time.Duration(o.seconds) * time.Second
	fmt.Fprintf(out, "perfbench %s seed=%d window=%s trace=%v\n", sp.name, o.seed, window, o.trace)
	if o.trace {
		return runTraced(sp, o, window, out)
	}

	var times []float64
	var b *bencher
	for i := 0; i < setups; i++ {
		if b != nil {
			b.close()
		}
		start := time.Now()
		if b, err = newBencher(sp, o.seed, false); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	rd := b.drive(ramp, window)
	b.close()
	m, err := endToEnd(sp, b.pools, rd, median(times))
	if err != nil {
		return nil, err
	}
	c := tally(rd, sp.limit)
	fmt.Fprintf(out, "host: %s\n", hostRecord())
	fmt.Fprintf(out, "setup_s per set-up: %v\n", times)
	report(out, c, m)
	fmt.Fprintf(out, "slo_miss_frac %.6f ratio\n", c.sloMissFrac())
	return verdict(c, m), nil
}

// verdict is the result line: a run is correct when no output differed
// from its reference. Failed counts wrong outputs and errors; shedding,
// expiry and overflow are the stack's designed answers to overload and
// show in slo_met_frac instead.
func verdict(c counts, m metricSet) *result {
	return &result{Correct: c.wrong == 0, Attempted: c.attempted, Failed: c.wrong + c.errored, Metrics: m}
}

// runTraced runs a short untraced comparison, then the traced run whose
// per-layer metrics are reported, and writes the traced spans out.
func runTraced(sp spec, o options, window time.Duration, out io.Writer) (*result, error) {
	b, err := newBencher(sp, o.seed, false)
	if err != nil {
		return nil, err
	}
	cmp := max(window/4, 2*time.Second)
	rdU := b.drive(ramp, cmp)
	b.close()
	cU := tally(rdU, sp.limit)
	if cU.wrong > 0 {
		return verdict(cU, metricSet{}), nil
	}
	untracedCPU := cpuPerOp(rdU, rdU.whole(), sp.limit)

	if b, err = newBencher(sp, o.seed, true); err != nil {
		return nil, err
	}
	probe, err := probePasses(sp)
	if err != nil {
		return nil, err
	}
	rd := b.drive(ramp, window)
	b.close()
	spans := b.tr.spans
	m, st, err := perLayer(sp, b.pools, rd, spans, probe, untracedCPU)
	if err != nil {
		return nil, err
	}
	c := tally(rd, sp.limit)
	fmt.Fprintf(out, "host: %s\n", hostRecord())
	report(out, c, m)
	reportStages(out, st)
	if o.traceOut != "" {
		path := filepath.Join(o.traceOut, fmt.Sprintf("%s-seed%d.json", sp.name, o.seed))
		if err := writeSpans(path, rd, spans, b.pools); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans: %s\n", path)
	}
	return verdict(c, m), nil
}

// bencher is one set-up: inputs with their references, and a started,
// warmed stack.
type bencher struct {
	sp    spec
	seed  int64
	pools []*pool
	st    *stack
	tr    *tracer
}

func newBencher(sp spec, seed int64, traced bool) (*bencher, error) {
	b := &bencher{sp: sp, seed: seed}
	if traced {
		b.tr = &tracer{epoch: time.Now()}
	}
	var err error
	if b.pools, err = makePools(sp, seed, b.tr); err != nil {
		return nil, err
	}
	if b.st, err = buildStack(sp, b.tr); err != nil {
		return nil, err
	}
	if err := warmUp(b.st, b.pools); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// drive runs the workload for an unmeasured ramp and then the timed window.
func (b *bencher) drive(ramp, window time.Duration) *runData {
	d := &driver{sp: b.sp, st: b.st, pools: b.pools, tr: b.tr, ramp: ramp, window: window, seed: b.seed}
	return d.run()
}

func (b *bencher) close() { b.st.close() }

// probePasses times isolated full passes of the kinds outside the mix, at
// the mix's width, so every kind reports a pass time on every workload.
func probePasses(sp spec) (map[phiwork.Kind]float64, error) {
	in := map[phiwork.Kind]bool{}
	for _, s := range sp.mix {
		in[s.kind] = true
	}
	key := bench.FixedKey(sp.bits)
	g := sp.group()
	rng := rand.New(rand.NewSource(int64(sp.bits)))
	ref := baseline.NewOpenSSL()
	out := map[phiwork.Kind]float64{}
	for _, k := range phiwork.Kinds() {
		if in[k] {
			continue
		}
		w := workloadFor(k, key, g)
		ins, err := makeInputs(rng, ref, w, key, g, 16)
		if err != nil {
			return nil, err
		}
		be := vpu.NewBackend(vpu.BackendDirect)
		var times []float64
		for i := 0; i < 3; i++ {
			be.Reset()
			start := time.Now()
			if _, _, _, err := w.ExecuteBatch(be, ins); err != nil {
				return nil, fmt.Errorf("probe %s: %w", k, err)
			}
			times = append(times, float64(time.Since(start))/1e6)
		}
		out[k] = median(times)
	}
	return out, nil
}

// report prints the counts and every metric with its unit.
func report(out io.Writer, c counts, m metricSet) {
	fmt.Fprintf(out, "counts: attempted=%d succeeded=%d refused=%d failed=%d wrong=%d (shed=%d expired=%d overflow=%d other=%d)\n",
		c.attempted, c.succeeded, c.refused, c.failed, c.wrong, c.shed, c.expired, c.overflow, c.errored)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-32s %14.6f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// reportStages prints the median of each latency stage.
func reportStages(out io.Writer, all []stages) {
	col := func(f func(stages) int64) float64 {
		v := make([]float64, len(all))
		for i, s := range all {
			v[i] = ms(f(s))
		}
		return median(v)
	}
	fmt.Fprintf(out, "stage p50 ms (%d requests, stage sums checked): gen=%.3f door=%.3f submit=%.3f wait=%.3f pass=%.3f deliver=%.3f\n",
		len(all),
		col(func(s stages) int64 { return s.gen }), col(func(s stages) int64 { return s.door }),
		col(func(s stages) int64 { return s.submit }), col(func(s stages) int64 { return s.wait }),
		col(func(s stages) int64 { return s.pass }), col(func(s stages) int64 { return s.deliver }))
}

// hostRecord describes the host: CPU model, CPU count, GOMAXPROCS, Go
// version and the stdlib crypto/rsa RSA-2048 PKCS#1 v1.5 sign time, a
// host-speed reference only.
func hostRecord() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s stdlib_rsa2048_sign_ms=%.3f",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), stdlibSignMS())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stdlibSignMS times crypto/rsa PKCS#1 v1.5 signing with the embedded
// RSA-2048 key.
func stdlibSignMS() float64 {
	k := bench.FixedKey(2048)
	nat := func(b []byte) *big.Int { return new(big.Int).SetBytes(b) }
	key := &rsa.PrivateKey{
		PublicKey: rsa.PublicKey{N: nat(k.N.Bytes()), E: int(nat(k.E.Bytes()).Int64())},
		D:         nat(k.D.Bytes()),
		Primes:    []*big.Int{nat(k.P.Bytes()), nat(k.Q.Bytes())},
	}
	key.Precompute()
	digest := sha256.Sum256([]byte("perfbench"))
	const n = 20
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := rsa.SignPKCS1v15(nil, key, crypto.SHA256, digest[:]); err != nil {
			return 0
		}
	}
	return float64(time.Since(start)) / 1e6 / n
}

// writeSpans writes the traced run's passes and requests as JSON.
func writeSpans(path string, rd *runData, spans []span, pools []*pool) error {
	type passOut struct {
		Kind   string `json:"kind"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Lanes  []int  `json:"lanes"`
		Scalar bool   `json:"scalar,omitempty"`
	}
	type reqOut struct {
		Kind    string `json:"kind"`
		Input   int    `json:"input"`
		Ready   int64  `json:"ready_ns"`
		Sub     int64  `json:"submit_ns"`
		Ret     int64  `json:"return_ns"`
		BSub    int64  `json:"backend_submit_ns"`
		BRet    int64  `json:"backend_return_ns"`
		Recv    int64  `json:"receive_ns"`
		Outcome uint8  `json:"outcome"`
		Window  bool   `json:"in_window"`
	}
	poolOf := map[phiwork.Kind]*pool{}
	for _, p := range pools {
		poolOf[p.kind] = p
	}
	doc := struct {
		WindowStart int64     `json:"window_start_ns"`
		WindowEnd   int64     `json:"window_end_ns"`
		Passes      []passOut `json:"passes"`
		Requests    []reqOut  `json:"requests"`
	}{WindowStart: rd.ws, WindowEnd: rd.we}
	for _, s := range spans {
		po := passOut{Kind: string(s.kind), Start: s.start, End: s.end, Scalar: s.scalar}
		for _, in := range s.ins {
			po.Lanes = append(po.Lanes, poolOf[s.kind].index[inputKey(in)])
		}
		doc.Passes = append(doc.Passes, po)
	}
	for _, r := range rd.recs {
		doc.Requests = append(doc.Requests, reqOut{
			Kind: string(pools[r.pool].kind), Input: r.input, Ready: r.ready, Sub: r.sub, Ret: r.ret,
			BSub: r.bsub, BRet: r.bret, Recv: r.recv, Outcome: uint8(r.outcome), Window: r.inWindow,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
