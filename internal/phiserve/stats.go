package phiserve

import (
	"fmt"
	"sort"
	"strings"

	"phiopenssl/internal/knc"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/telemetry"
	"phiopenssl/internal/vbatch"
	"phiopenssl/internal/vpu"
)

// Stats is a snapshot of the scheduler's aggregate behaviour. It is a
// thin view over the server's telemetry registry: every field is read
// from the same counters the /metrics endpoint exports, so the two
// surfaces cannot drift apart.
type Stats struct {
	// Submitted / Completed / Failed count requests accepted by SubmitWork,
	// resolved with a plaintext, and resolved with an error
	// (cancellation included). Completed includes fallback-served ops.
	Submitted, Completed, Failed int64
	// Batches is the number of kernel passes executed (retry passes
	// included; scalar fallback ops are not batches).
	Batches int64
	// DeadlineFires counts batches sealed by the fill deadline rather than
	// by filling all lanes.
	DeadlineFires int64
	// FillHist[i] is the number of executed batches with i+1 live lanes
	// (a batch cannot execute with zero live lanes — sealing requires at
	// least one request — so the histogram starts at one lane).
	FillHist [BatchSize]int64
	// MeanFill is the mean number of live lanes per executed batch; 0
	// when no batch has executed.
	MeanFill float64
	// PendingLanes is the number of requests currently buffered in open
	// (not yet sealed) batches.
	PendingLanes int
	// QueueDepth is the number of sealed batches currently waiting in the
	// dispatch queue: per class, the first QueueDepth of its sealed list
	// (the rest are overflow).
	QueueDepth int
	// TotalSimCycles is the sum of simulated cycles across kernel passes.
	TotalSimCycles float64
	// CyclesPerOp is (TotalSimCycles + FallbackCycles) / Completed: the
	// amortized simulated cost of one request, including what faults made
	// the server spend on retries and the scalar path. 0 when Completed
	// is 0 (never NaN).
	CyclesPerOp float64
	// SimThroughput is ops/second on the simulated machine at the
	// configured worker count, per the KNC issue-efficiency model. 0 when
	// Completed is 0.
	SimThroughput float64
	// MeanSimLatency is the mean per-request service latency in seconds
	// on the simulated machine (one kernel pass; queueing excluded). 0
	// when Completed is 0 (never NaN).
	MeanSimLatency float64

	// FaultsDetected counts lanes whose pass failed the Bellcore
	// re-encryption check (each retry pass can add more).
	FaultsDetected int64
	// KernelFaults counts whole-pass transient kernel failures.
	KernelFaults int64
	// StalledPasses counts passes that wedged their worker (injected
	// stalls observed by the execution path).
	StalledPasses int64
	// TimedOutBatches counts batch executions abandoned by the
	// ExecTimeout bound.
	TimedOutBatches int64
	// WorkerRespawns counts workers rebuilt after a stall.
	WorkerRespawns int64
	// Retries counts lane-operations re-executed on the vector path after
	// a detected fault.
	Retries int64
	// FallbackOps counts requests served by the scalar non-CRT path
	// (breaker open, retries exhausted, or drain of a stalled batch).
	FallbackOps int64
	// FallbackCycles is the simulated cycle sum spent on the scalar path.
	FallbackCycles float64
	// BreakerTrips counts closed->open (and failed-probe) transitions.
	BreakerTrips int64
	// BreakerState is "closed", "open" or "half-open" at snapshot time.
	BreakerState string

	// StolenLanes counts requests this server handed to the redispatch
	// hook (partial-deadline, fault-retry and degraded offers combined).
	StolenLanes int64
	// AdoptedLanes counts requests this server accepted from siblings
	// via Adopt.
	AdoptedLanes int64
	// OverflowBatches counts seals that found QueueDepth batches of their
	// class already waiting, so the batch joined the overflow (each
	// counted once).
	OverflowBatches int64

	// ExpiredLanes counts requests resolved with ErrDeadlineExceeded —
	// rejected at the door or dropped at a pre-execution checkpoint (seal,
	// dequeue, pre-pass, retry, scalar drain) before burning cycles.
	ExpiredLanes int64
	// CanceledLanes counts requests dropped at a pre-execution checkpoint
	// because their context was canceled after admission (the request still
	// held a lane; it resolves with ErrCanceled without executing).
	CanceledLanes int64
	// OverflowDropped counts requests shed with ErrOverloaded because their
	// class's overflow was at Config.OverflowCap when their batch sealed.
	OverflowDropped int64
	// RetryBudgetDenied counts lane-retries refused by the shared retry
	// budget (the lanes degraded straight to the scalar fallback).
	RetryBudgetDenied int64

	// Workloads breaks submissions, completions and kernel passes down by
	// workload kind; kinds with no traffic are omitted.
	Workloads map[phiwork.Kind]WorkloadStats
}

// WorkloadStats is one workload kind's slice of the aggregate counters.
type WorkloadStats struct {
	Submitted int64
	Completed int64
	Batches   int64
}

// String renders a one-line summary.
func (st Stats) String() string {
	var fills []string
	for i, n := range st.FillHist {
		if n > 0 {
			fills = append(fills, fmt.Sprintf("%d:%d", i+1, n))
		}
	}
	line := fmt.Sprintf(
		"submitted=%d completed=%d failed=%d batches=%d meanFill=%.1f cycles/op=%.0f simThroughput=%.0f fills[%s]",
		st.Submitted, st.Completed, st.Failed, st.Batches, st.MeanFill,
		st.CyclesPerOp, st.SimThroughput, strings.Join(fills, " "))
	if st.FaultsDetected+st.KernelFaults+st.StalledPasses+st.FallbackOps+st.BreakerTrips > 0 {
		line += fmt.Sprintf(
			" faults=%d kernelFaults=%d stalls=%d retries=%d fallback=%d trips=%d breaker=%s",
			st.FaultsDetected, st.KernelFaults, st.StalledPasses, st.Retries,
			st.FallbackOps, st.BreakerTrips, st.BreakerState)
	}
	if st.StolenLanes+st.AdoptedLanes+st.OverflowBatches > 0 {
		line += fmt.Sprintf(" stolen=%d adopted=%d overflow=%d",
			st.StolenLanes, st.AdoptedLanes, st.OverflowBatches)
	}
	if st.ExpiredLanes+st.CanceledLanes+st.OverflowDropped+st.RetryBudgetDenied > 0 {
		line += fmt.Sprintf(" expired=%d canceled=%d shed=%d budgetDenied=%d",
			st.ExpiredLanes, st.CanceledLanes, st.OverflowDropped, st.RetryBudgetDenied)
	}
	if len(st.Workloads) > 0 {
		kinds := make([]string, 0, len(st.Workloads))
		for k := range st.Workloads {
			kinds = append(kinds, string(k))
		}
		sort.Strings(kinds)
		var parts []string
		for _, k := range kinds {
			w := st.Workloads[phiwork.Kind(k)]
			parts = append(parts, fmt.Sprintf("%s:%d/%d", k, w.Completed, w.Submitted))
		}
		line += " workloads[" + strings.Join(parts, " ") + "]"
	}
	return line
}

// statsAcc is the server's bookkeeping, expressed entirely as telemetry
// metrics: there is no parallel counter set — Stats snapshots read the
// registry, and the registry is what /metrics exports. Hot-path updates
// are atomic (lock-free); the only mutex in sight is the registry's
// registration lock, taken once at construction.
type statsAcc struct {
	submitted, completed, failed *telemetry.Counter
	batches, deadlineFires       *telemetry.Counter
	faultsDetected, kernelFaults *telemetry.Counter
	stalledPasses, retries       *telemetry.Counter
	fallbackOps                  *telemetry.Counter
	pendingLanes                 *telemetry.Gauge
	fill                         *telemetry.Histogram
	simLatency                   *telemetry.Histogram // seconds, success only
	wallLatency                  *telemetry.Histogram // host seconds submit->resolve
	queueWait                    *telemetry.Histogram // host seconds push->execute
	cycles, fallbackCycles       *telemetry.FloatCounter
	phaseCycles                  [vbatch.NumPhases]*telemetry.FloatCounter
	breakerGauge                 *telemetry.Gauge
	lanesStolen, lanesAdopted    *telemetry.Counter
	overflowed                   *telemetry.Counter
	queueDepth                   [2]*telemetry.Gauge // per phiwork.Class
	overflowDepth                *telemetry.Gauge
	batchesRun, batchesRejected  *telemetry.Counter
	batchesExpired               *telemetry.Counter
	timedOut, respawns           *telemetry.Counter
	expiredLanes, canceledLanes  *telemetry.Counter
	overflowDropped              *telemetry.Counter
	budgetDenied                 *telemetry.Counter
	// byKind holds the per-workload counter families, pre-registered for
	// every canonical kind (so scrapes show zeros rather than absent
	// series) plus a catch-all "other" row for out-of-tree Workload
	// implementations.
	byKind map[phiwork.Kind]*workloadAcc
	other  *workloadAcc
}

// workloadAcc is one workload kind's labeled counter family.
type workloadAcc struct {
	submitted *telemetry.Counter
	completed *telemetry.Counter
	batches   *telemetry.Counter
}

// workload resolves a kind to its counter family, falling back to the
// catch-all row for kinds outside the canonical set.
func (a *statsAcc) workload(k phiwork.Kind) *workloadAcc {
	if wa, ok := a.byKind[k]; ok {
		return wa
	}
	return a.other
}

// newStatsAcc registers the scheduler's metric set on reg (never nil: a
// server without caller-provided telemetry gets a private registry).
// labels are stamped on every metric; they are what keeps multiple
// servers on one shared registry (the fleet's cards) from silently
// merging their counters.
func newStatsAcc(reg *telemetry.Registry, labels []string) *statsAcc {
	// L appends extra label pairs to the server's own, copying so the
	// shared backing array is never aliased across registrations.
	L := func(extra ...string) []string {
		out := make([]string, 0, len(labels)+len(extra))
		out = append(out, labels...)
		return append(out, extra...)
	}
	a := &statsAcc{
		submitted: reg.Counter("phiserve_requests_submitted_total",
			"requests accepted by SubmitWork", labels...),
		completed: reg.Counter("phiserve_requests_completed_total",
			"requests resolved with a plaintext (fallback included)", labels...),
		failed: reg.Counter("phiserve_requests_failed_total",
			"requests resolved with an error (cancellation included)", labels...),
		batches: reg.Counter("phiserve_batches_total",
			"kernel passes executed (retry passes included)", labels...),
		deadlineFires: reg.Counter("phiserve_deadline_fires_total",
			"batches dispatched by the fill deadline", labels...),
		faultsDetected: reg.Counter("phiserve_faults_detected_total",
			"lanes that failed the Bellcore re-encryption check", labels...),
		kernelFaults: reg.Counter("phiserve_kernel_faults_total",
			"whole-pass transient kernel failures", labels...),
		stalledPasses: reg.Counter("phiserve_stalled_passes_total",
			"passes that wedged their worker", labels...),
		retries: reg.Counter("phiserve_retries_total",
			"lane-operations re-executed after a detected fault", labels...),
		fallbackOps: reg.Counter("phiserve_fallback_ops_total",
			"requests served by the scalar non-CRT path", labels...),
		pendingLanes: reg.Gauge("phiserve_pending_lanes",
			"requests buffered in open (not yet sealed) batches", labels...),
		fill: reg.Histogram("phiserve_batch_fill_lanes",
			"live lanes per executed batch",
			telemetry.LinearBuckets(1, 1, BatchSize), labels...),
		simLatency: reg.Histogram("phiserve_sim_latency_seconds",
			"per-request service latency on the simulated machine",
			telemetry.Pow2Buckets(1e-6, 16), labels...),
		wallLatency: reg.Histogram("phiserve_request_wall_seconds",
			"host wall time from SubmitWork to resolve",
			telemetry.Pow2Buckets(1e-6, 16), labels...),
		queueWait: reg.Histogram("phiserve_queue_wait_seconds",
			"host wall time a sealed batch waited in the card queue",
			telemetry.Pow2Buckets(1e-6, 16), labels...),
		cycles: reg.FloatCounter("phiserve_sim_cycles_total",
			"simulated cycles across kernel passes", labels...),
		fallbackCycles: reg.FloatCounter("phiserve_fallback_sim_cycles_total",
			"simulated cycles spent on the scalar fallback path", labels...),
		breakerGauge: reg.Gauge("phiserve_breaker_state",
			"circuit breaker state (0 closed, 1 open, 2 half-open)", labels...),
		lanesStolen: reg.Counter("phiserve_lanes_stolen_total",
			"requests handed to the redispatch hook (work stealing)", labels...),
		lanesAdopted: reg.Counter("phiserve_lanes_adopted_total",
			"requests adopted from sibling servers", labels...),
		overflowed: reg.Counter("phiserve_dispatch_overflow_total",
			"seals that found QueueDepth batches of their class waiting", labels...),
		overflowDepth: reg.Gauge("phiserve_dispatch_overflow_depth",
			"sealed batches waiting beyond each class's QueueDepth", labels...),
		batchesRun: reg.Counter("phiserve_batches_run_total",
			"sealed batches workers ran to completion", labels...),
		batchesRejected: reg.Counter("phiserve_batches_rejected_total",
			"sealed batches failed unrun by cancellation", labels...),
		batchesExpired: reg.Counter("phiserve_batches_expired_total",
			"sealed batches dropped at dequeue with no live lane", labels...),
		timedOut: reg.Counter("phiserve_batches_timed_out_total",
			"batch executions abandoned by the ExecTimeout bound", labels...),
		respawns: reg.Counter("phiserve_worker_respawns_total",
			"workers rebuilt with fresh state after a stall", labels...),
		expiredLanes: reg.Counter("phiserve_requests_expired_total",
			"requests resolved with ErrDeadlineExceeded before execution", labels...),
		canceledLanes: reg.Counter("phiserve_canceled_lanes_total",
			"lanes dropped pre-execution after their context was canceled", labels...),
		overflowDropped: reg.Counter("phiserve_overflow_dropped_total",
			"requests shed with ErrOverloaded at the overflow cap", labels...),
		budgetDenied: reg.Counter("phiserve_retry_budget_denied_total",
			"lane-retries refused by the shared retry budget", labels...),
	}
	for _, c := range []phiwork.Class{phiwork.ClassHeavy, phiwork.ClassLight} {
		a.queueDepth[c] = reg.Gauge("phiserve_queue_depth",
			"sealed batches waiting in the dispatch queue, by class",
			L("class", c.String())...)
	}
	for p := 0; p < vbatch.NumPhases; p++ {
		a.phaseCycles[p] = reg.FloatCounter("phiserve_phase_sim_cycles_total",
			"simulated kernel-pass cycles attributed per kernel phase; "+
				"the sum across phases equals phiserve_sim_cycles_total",
			L("phase", vbatch.PhaseName(vpu.Phase(p)))...)
	}
	// One labeled row per canonical workload kind, plus the catch-all.
	a.byKind = make(map[phiwork.Kind]*workloadAcc, len(phiwork.Kinds())+1)
	mkKind := func(label string) *workloadAcc {
		return &workloadAcc{
			submitted: reg.Counter("phiserve_workload_requests_total",
				"requests accepted by SubmitWork, by workload kind",
				L("workload", label)...),
			completed: reg.Counter("phiserve_workload_completed_total",
				"requests resolved with a result, by workload kind",
				L("workload", label)...),
			batches: reg.Counter("phiserve_workload_batches_total",
				"kernel passes executed, by workload kind",
				L("workload", label)...),
		}
	}
	for _, k := range phiwork.Kinds() {
		a.byKind[k] = mkKind(string(k))
	}
	a.other = mkKind("other")
	// Scrapeable latency quantiles: estimated locally from the wall
	// histogram (Histogram.Quantile), so p50/p99 need no query engine.
	reg.GaugeFunc("phiserve_latency_p50_seconds",
		"median host wall latency, interpolated from phiserve_request_wall_seconds",
		func() float64 { return a.wallLatency.Quantile(0.5) }, labels...)
	reg.GaugeFunc("phiserve_latency_p99_seconds",
		"p99 host wall latency, interpolated from phiserve_request_wall_seconds",
		func() float64 { return a.wallLatency.Quantile(0.99) }, labels...)
	return a
}

// recordBatch accounts one executed kernel pass of fill live lanes, with
// the pass's per-phase cycle attribution. Per-request accounting (sim
// latency included) lives in Server.finish, the single resolution point.
func (a *statsAcc) recordBatch(kind phiwork.Kind, fill int, cycles float64, phases knc.PhaseCycles) {
	a.batches.Inc()
	a.workload(kind).batches.Inc()
	a.fill.Observe(float64(fill))
	a.cycles.Add(cycles)
	for p := 0; p < vbatch.NumPhases; p++ {
		if phases[p] != 0 {
			a.phaseCycles[p].Add(phases[p])
		}
	}
}

// snapshot assembles a Stats view from the registry. Individual reads are
// atomic; after a quiescent point (Close, or a drained pipeline) the
// snapshot is exact.
func (a *statsAcc) snapshot(cfg Config, bstate breakerState, trips int64) Stats {
	st := Stats{
		Submitted:         a.submitted.Value(),
		Completed:         a.completed.Value(),
		Failed:            a.failed.Value(),
		Batches:           a.batches.Value(),
		DeadlineFires:     a.deadlineFires.Value(),
		PendingLanes:      int(a.pendingLanes.Value()),
		QueueDepth:        int(a.queueDepth[0].Value() + a.queueDepth[1].Value()),
		TotalSimCycles:    a.cycles.Value(),
		FaultsDetected:    a.faultsDetected.Value(),
		KernelFaults:      a.kernelFaults.Value(),
		StalledPasses:     a.stalledPasses.Value(),
		TimedOutBatches:   a.timedOut.Value(),
		WorkerRespawns:    a.respawns.Value(),
		Retries:           a.retries.Value(),
		FallbackOps:       a.fallbackOps.Value(),
		FallbackCycles:    a.fallbackCycles.Value(),
		BreakerTrips:      trips,
		BreakerState:      bstate.String(),
		StolenLanes:       a.lanesStolen.Value(),
		AdoptedLanes:      a.lanesAdopted.Value(),
		OverflowBatches:   a.overflowed.Value(),
		ExpiredLanes:      a.expiredLanes.Value(),
		CanceledLanes:     a.canceledLanes.Value(),
		OverflowDropped:   a.overflowDropped.Value(),
		RetryBudgetDenied: a.budgetDenied.Value(),
	}
	// The fill histogram's buckets are exactly the lane counts 1..16, so
	// the view reconstructs FillHist losslessly (bucket i holds batches
	// with i+1 live lanes).
	for f, n := range a.fill.BucketCounts() {
		if f < BatchSize {
			st.FillHist[f] = n
		}
	}
	if st.Batches > 0 {
		st.MeanFill = a.fill.Sum() / float64(st.Batches)
	}
	// Guard the per-op ratios: with nothing completed they report 0, not
	// NaN/Inf (a snapshot taken before the first resolve, or a run where
	// every request was canceled).
	if st.Completed > 0 {
		st.CyclesPerOp = (st.TotalSimCycles + st.FallbackCycles) / float64(st.Completed)
		st.SimThroughput = cfg.Machine.Throughput(cfg.Workers, st.CyclesPerOp)
		st.MeanSimLatency = a.simLatency.Sum() / float64(st.Completed)
	}
	for k, wa := range a.byKind {
		ws := WorkloadStats{
			Submitted: wa.submitted.Value(),
			Completed: wa.completed.Value(),
			Batches:   wa.batches.Value(),
		}
		if ws.Submitted+ws.Completed+ws.Batches == 0 {
			continue
		}
		if st.Workloads == nil {
			st.Workloads = make(map[phiwork.Kind]WorkloadStats)
		}
		st.Workloads[k] = ws
	}
	return st
}
