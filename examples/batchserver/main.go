// Batchserver: the throughput-oriented server mode. Single RSA private
// requests stream into a BatchServer, which aggregates them per key into
// sixteen-lane batches for the vector kernels (one request per lane,
// ablation A4) and dispatches each batch when its lanes fill or its fill
// deadline fires. The demo drives the scheduler with mixed traffic —
// steady single requests plus handshake-style bursts under a second key —
// then compares the achieved amortized cost against the paper's
// per-operation engine.
package main

import (
	"context"
	"crypto/rand"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"phiopenssl"
)

func encrypt(key *phiopenssl.PrivateKey, eng phiopenssl.Engine) (phiopenssl.Nat, phiopenssl.Nat) {
	buf := make([]byte, key.Size()-2)
	if _, err := rand.Read(buf); err != nil {
		log.Fatal(err)
	}
	m := phiopenssl.NatFromBytes(buf).Mod(key.N)
	c, err := phiopenssl.RSAPublic(eng, &key.PublicKey, m)
	if err != nil {
		log.Fatal(err)
	}
	return m, c
}

func main() {
	metricsAddr := flag.String("metrics", "",
		"serve /metrics, /vars, /trace and /debug/pprof on this address (e.g. :9090); the process stays up after the demo")
	traceFile := flag.String("trace", "",
		"write a Chrome trace-event JSON of the run to this file (open in https://ui.perfetto.dev)")
	backendName := flag.String("backend", "direct",
		"kernel execution backend: direct (calibrated limb arithmetic, the serving default) or sim (interpreted cycle-exact vector unit); both report identical simulated cycles")
	cards := flag.Int("cards", 1,
		"number of simulated coprocessor cards; >1 serves through a sharded fleet (consistent-hash routing, hot-key replication, work stealing, breaker failover) with per-card metrics under card=\"i\" labels")
	replicas := flag.Int("replicas", 2,
		"cards a hot key spreads over when -cards > 1")
	slo := flag.Duration("slo", 0,
		"per-request latency budget; >0 fronts the server with an SLO-aware admission controller that sheds requests whose budget the queue-delay estimate already exceeds (experiment A9)")
	tenantSpec := flag.String("tenants", "gold:10,silver:3,bronze:1",
		"tenant traffic classes as id:weight pairs for brownout fair queuing; requests cycle through them (only with -slo)")
	journeys := flag.Bool("journeys", false,
		"record per-request journeys with tail-based sampling and the incident flight recorder; prints kept journeys and incidents after the run and serves /journeys + /incidents under -metrics")
	sample := flag.Int("sample", 16,
		"keep 1 in N normal completions in the journey ring (anomalous journeys are always kept; only with -journeys)")
	flag.Parse()
	backend, ok := phiopenssl.ParseBackend(*backendName)
	if !ok {
		log.Fatalf("unknown -backend %q (want sim or direct)", *backendName)
	}

	// One telemetry bundle observes the whole run: metrics always, the
	// trace recorder only when someone will look at it.
	var tel *phiopenssl.Telemetry
	if *traceFile != "" || *metricsAddr != "" {
		tel = phiopenssl.NewTelemetryWithTrace(0)
	} else {
		tel = phiopenssl.NewTelemetry()
	}
	// The journey recorder threads through every layer below: the door
	// stamps the trace id, the fleet adds route hops, the scheduler seals
	// and passes, and the recorder tail-samples the resolved record. Each
	// kept journey is its request's span in the trace, so a traced run
	// always carries a recorder, keeping every request unless -journeys
	// sets the sampling.
	var rec *phiopenssl.JourneyRecorder
	if *journeys || tel.Tracer != nil {
		keep := 1
		if *journeys {
			keep = *sample
		}
		rec = phiopenssl.NewJourneyRecorder(phiopenssl.JourneyConfig{
			SampleN:   keep,
			Telemetry: tel,
		})
		tel.Journeys = rec
	}
	if *metricsAddr != "" {
		go func() {
			log.Fatal(http.ListenAndServe(*metricsAddr, phiopenssl.TelemetryHandler(tel)))
		}()
		fmt.Printf("telemetry live on http://localhost%s (/metrics /vars /trace /journeys /incidents /debug/pprof)\n", *metricsAddr)
	}

	fmt.Println("generating two RSA-1024 keys...")
	keyA, err := phiopenssl.GenerateKey(rand.Reader, 1024)
	if err != nil {
		log.Fatal(err)
	}
	keyB, err := phiopenssl.GenerateKey(rand.Reader, 1024)
	if err != nil {
		log.Fatal(err)
	}
	mach := phiopenssl.DefaultMachine()

	// Per-operation PhiOpenSSL engine: the latency-mode floor the
	// scheduler has to beat once its lanes fill.
	phi := phiopenssl.NewEngine(phiopenssl.EnginePhi)
	eng := phiopenssl.NewEngine(phiopenssl.EngineOpenSSL)
	_, warm := encrypt(keyA, eng)
	if _, err := phiopenssl.RSAPrivate(phi, keyA, warm, phiopenssl.DefaultPrivateOpts()); err != nil {
		log.Fatal(err)
	}
	perOp := phi.Cycles()

	cardCfg := phiopenssl.BatchServerConfig{
		Machine:      mach,
		Workers:      4,
		FillDeadline: 20 * time.Millisecond,
		QueueDepth:   8,
		Backend:      backend,
		Telemetry:    tel,
		Journeys:     rec,
	}
	// One card serves through a BatchServer directly; more go through the
	// sharded fleet front end. Both are an AdmissionBackend: the same
	// SubmitWork shape, which the door fronts too.
	var (
		srv *phiopenssl.BatchServer
		flt *phiopenssl.Fleet
		svc phiopenssl.AdmissionBackend
	)
	if *cards > 1 {
		var err error
		flt, err = phiopenssl.NewFleet(phiopenssl.FleetConfig{
			Cards:     *cards,
			Replicas:  *replicas,
			Card:      cardCfg,
			Telemetry: tel,
			Journeys:  rec,
		})
		if err != nil {
			log.Fatal(err)
		}
		flt.Start(context.Background())
		svc = flt
		fmt.Printf("serving through a %d-card fleet (%d hot-key replicas)\n", *cards, *replicas)
	} else {
		var err error
		srv, err = phiopenssl.NewBatchServer(cardCfg)
		if err != nil {
			log.Fatal(err)
		}
		srv.Start(context.Background())
		svc = srv
	}

	// The admission front door: tenant classes with weights, one SLO
	// deadline stamped onto every admitted request. Requests the door
	// sheds cost the client one rejection instead of one blown deadline.
	var door *phiopenssl.AdmissionController
	var tenants []phiopenssl.AdmissionTenant
	if *slo > 0 {
		for _, part := range strings.Split(*tenantSpec, ",") {
			id, ws, ok := strings.Cut(strings.TrimSpace(part), ":")
			if id == "" {
				continue
			}
			w := 1.0
			if ok {
				var err error
				if w, err = strconv.ParseFloat(ws, 64); err != nil {
					log.Fatalf("bad -tenants entry %q: %v", part, err)
				}
			}
			tenants = append(tenants, phiopenssl.AdmissionTenant{ID: id, Weight: w})
		}
		door = phiopenssl.NewAdmissionController(svc, phiopenssl.AdmissionConfig{
			SLO:       *slo,
			Tenants:   tenants,
			Telemetry: tel,
			Journeys:  rec,
		})
		fmt.Printf("admission control on: SLO %v, %d tenant classes\n", *slo, len(tenants))
	}

	// Mixed traffic: 96 steady singles under key A interleaved with three
	// 16-request handshake bursts under key B — the shape of a TLS
	// terminator holding two certificates.
	type pendingReq struct {
		want phiopenssl.Nat
		resp <-chan phiopenssl.BatchResult
	}
	var reqs []pendingReq
	var wg sync.WaitGroup
	shed := 0
	nextTenant := 0
	submit := func(key *phiopenssl.PrivateKey) {
		m, c := encrypt(key, eng)
		w, in := phiopenssl.RSAPrivateWorkload(key), phiopenssl.WorkloadInput{A: c}
		var resp <-chan phiopenssl.BatchResult
		var err error
		if door != nil {
			tn := tenants[nextTenant%len(tenants)].ID
			nextTenant++
			resp, err = door.SubmitWork(context.Background(), tn, w, in)
			if errors.Is(err, phiopenssl.ErrShedOverload) || errors.Is(err, phiopenssl.ErrShedTenant) {
				shed++
				return
			}
		} else {
			resp, err = svc.SubmitWork(context.Background(), w, in, phiopenssl.SubmitOpts{})
		}
		if err != nil {
			log.Fatal(err)
		}
		reqs = append(reqs, pendingReq{want: m, resp: resp})
	}
	fmt.Println("streaming 149 requests (singles under key A, bursts under key B)...")
	for i := 0; i < 96; i++ {
		submit(keyA)
		if i%32 == 31 {
			for j := 0; j < 16; j++ {
				submit(keyB)
			}
		}
	}
	// A trailing trickle that cannot fill a batch: the fill deadline
	// dispatches it as a partial pass, which still charges a full pass of
	// simulated cycles.
	for i := 0; i < 5; i++ {
		submit(keyA)
	}
	// Receivers drain asynchronously, like connection handlers would.
	bad, expired := 0, 0
	var mu sync.Mutex
	for _, r := range reqs {
		wg.Add(1)
		go func(r pendingReq) {
			defer wg.Done()
			res := <-r.resp
			mu.Lock()
			defer mu.Unlock()
			switch {
			case errors.Is(res.Err, phiopenssl.ErrServerDeadlineExceeded):
				// Admitted but overtaken by its SLO in the queue: dropped at
				// a checkpoint before burning a kernel pass.
				expired++
			case res.Err != nil || !res.M.Equal(r.want):
				bad++
			}
		}(r)
	}
	wg.Wait()
	if flt != nil {
		flt.Close()
	} else {
		srv.Close()
	}
	if bad > 0 {
		log.Fatalf("%d requests came back wrong", bad)
	}

	var st phiopenssl.BatchServerStats
	if flt != nil {
		fst := flt.Stats()
		st = fst.Fleet
		fmt.Printf("\nfleet (%s backend, %d cards): %s\n",
			flt.Card(0).Config().Backend, flt.NumCards(), st)
		for i, cs := range fst.Cards {
			fmt.Printf("  card %d: %s\n", i, cs)
		}
		fmt.Printf("  router: stolen=%d declined=%d failovers=%d hot-routed=%d\n",
			fst.Redispatched, fst.Declined, fst.Failovers, fst.HotRouted)
	} else {
		st = srv.Stats()
		fmt.Printf("\nscheduler (%s backend): %s\n", srv.Config().Backend, st)
	}
	if door != nil {
		ast := door.Stats()
		fmt.Printf("  door: admitted=%d shed=%d expired-in-queue=%d brownouts=%d\n",
			ast.Admitted, shed, expired, ast.BrownoutEnters)
		for _, ts := range ast.Tenants {
			if ts.Admitted+ts.ShedOverload+ts.ShedTenant > 0 {
				fmt.Printf("    tenant %-8s w=%-4.0f admitted=%d shedSLO=%d shedFair=%d\n",
					ts.ID, ts.Weight, ts.Admitted, ts.ShedOverload, ts.ShedTenant)
			}
		}
	}
	if *journeys {
		jc := rec.Counts()
		fmt.Printf("  journeys: resolved=%d kept-anomalous=%d kept-sampled=%d discarded=%d (1-in-%d sampling)\n",
			jc.Resolved, jc.KeptAnomalous, jc.KeptSampled, jc.Discarded, *sample)
		for _, j := range rec.Kept(4) {
			v := j.View()
			steps := make([]string, 0, len(v.Events))
			for _, e := range v.Events {
				s := e.Kind
				if e.Card >= 0 {
					s += fmt.Sprintf("@%d", e.Card)
				}
				steps = append(steps, s)
			}
			fmt.Printf("    id=%d tenant=%s key=%s outcome=%s lat=%.2fms: %s\n",
				v.ID, v.Tenant, v.Key, v.Outcome, v.LatencyUS/1e3, strings.Join(steps, " > "))
		}
		if incs := rec.Incidents(); len(incs) > 0 {
			fmt.Printf("  incidents: %d captured\n", len(incs))
			for _, inc := range incs {
				fmt.Printf("    #%d %s journeys=%d snapshots=%d fields=%v\n",
					inc.Seq, inc.Kind, len(inc.Journeys), len(inc.Snapshots), inc.Fields)
			}
		}
	}
	fmt.Printf("\nRSA-1024 private operation on %s:\n\n", mach)
	fmt.Printf("  per-op engine    : %10.0f cycles/op  (%8.0f ops/s at 244 threads)\n",
		perOp, mach.Throughput(244, perOp))
	fmt.Printf("  streamed batches : %10.0f cycles/op  (%8.0f ops/s at 244 threads, mean fill %.1f)\n",
		st.CyclesPerOp, mach.Throughput(244, st.CyclesPerOp), st.MeanFill)
	fmt.Printf("\nadvantage: %.1fx throughput; deadline-dispatched batches: %d of %d\n",
		perOp/st.CyclesPerOp, st.DeadlineFires, st.Batches)
	fmt.Println("\n(sweep the fill-deadline/load trade-off with: go run ./cmd/phibench -exp a6;")
	fmt.Println(" sweep fleet size x offered load with: go run ./cmd/phibench -exp a8;")
	fmt.Println(" sweep admission control vs overload with: go run ./cmd/phibench -exp a9)")

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := phiopenssl.WriteTrace(f, tel); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntrace written to %s (open in https://ui.perfetto.dev)\n", *traceFile)
	}
	if *metricsAddr != "" {
		fmt.Printf("\ntelemetry still live on http://localhost%s — ctrl-c to exit\n", *metricsAddr)
		select {}
	}
}
