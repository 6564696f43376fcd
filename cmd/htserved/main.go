// Command htserved runs the parcel-driven job service layer
// (internal/serve) against a deterministic seeded load script and
// reports throughput, latency quantiles, shed rate, and cold-vs-warm
// first-request latency. It is the serving-path harness: sharded
// admission, request batching, deadline shedding, and percolation
// warm-up, all on one shared litlx.System. Tenants are driven through
// the v2 handle API (identity resolved once at registration), each
// arrival admitted on its own: through SubmitFunc, or as a flow under
// -pipeline and in cluster mode.
//
// -scenario picks the script, sized by -rate and -duration: open (the
// default: steady traffic over Zipf-skewed tenants) | bursty | ramp |
// hotkey | sameshard | localhot | shift; -tightfrac, -tight and -loose
// give every script its deadline mix. -adapt closes the adaptivity loop
// (per-shard adaptive batch sizing, the stealing rebalancer,
// priority-aware overload shedding), so one command line compares
// static and adaptive configs on identical traffic. -locality (requires
// -adapt) engages the locale-aware data plane on top: each tenant
// registers -objects data objects in the shared space (the first
// quarter homed together at locale 0, the rest round-robin), requests
// routed by their declared working set's home, batches staged ahead of
// execution, and the locality loop migrating and replicating hot
// objects; the localhot scenario concentrates traffic on the locale-0
// objects to show it off, and is what open plays under -locality.
//
// -compile engages the continuous-compilation controller (with or
// without -adapt: the control loop runs whichever controllers are on):
// per-tenant key sketches on the admission path, hot-key fast paths
// (each tenant's specialized handler form, a quarter of the general
// handler's cost), and learned fan-out scatter plans. The
// shift scenario — a hot-key regime change at the midpoint — is the
// drift traffic it exists for. -hints-file persists the learned policy
// as a hints script at exit and loads it at startup when present, so a
// second run starts warm (the paper's knowledge database surviving
// recompilation).
//
// -pipeline plays an open script of dataflow flows instead of single
// requests: a dedicated tenant compiles a 3-stage fan-out pipeline
// (parse a hot locale-0 document, enrich -fan parts against element
// blocks on the other locales, aggregate into a locale-0 result),
// every stage routed by its declared working set, and the report
// covers whole flows plus per-stage done/shed/steal/locality accounting.
//
// -listen turns the process into one node of a real cluster
// (internal/cluster) on the TCP parcel transport: -join enters an
// existing cluster through any member, -nodes is the membership the
// node waits for before driving load, and -rate 0 hosts the node's
// locale range without generating flows. See cluster.go and the README
// "Cluster" section for the three-shell quickstart.
//
// Examples:
//
//	htserved -rate 5000 -tenants 64 -shards 8 -duration 2s
//	htserved -scenario hotkey -hotfrac 0.8 -adapt -rate 8000 -duration 2s
//	htserved -scenario localhot -adapt -locality -locales 2 -rate 4000 -duration 2s
//	htserved -pipeline -fan 4 -locales 2 -rate 1000 -duration 2s
//	htserved -listen 127.0.0.1:7101 -nodes 2 -locales 64 -rate 0 -duration 60s
package main

import (
	"encoding/json"
	_ "expvar" // registers /debug/vars on the default mux
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"time"

	"repro/internal/hints"
	"repro/internal/litlx"
	"repro/internal/mem"
	"repro/internal/serve"
	"repro/internal/spinwork"
	"repro/internal/stats"
)

func main() {
	var (
		rate     = flag.Float64("rate", 5000, "offered load, jobs/second (open loop)")
		duration = flag.Duration("duration", 2*time.Second, "load generation time")
		tenants  = flag.Int("tenants", 64, "tenant count")
		shards   = flag.Int("shards", 8, "admission shards")
		depth    = flag.Int("depth", 256, "per-shard queue bound")
		batch    = flag.Int("batch", 32, "max jobs per batch SGT")
		locales  = flag.Int("locales", 2, "litlx locales")
		workers  = flag.Int("workers", 8, "SGT workers per locale")
		work     = flag.Int64("work", 200, "handler cost in spin units (~0.5us each)")
		skew     = flag.Float64("skew", 1.0, "Zipf exponent over tenants (0 = uniform)")
		keys     = flag.Uint64("keys", 4096, "key space per tenant")
		tight    = flag.Duration("tight", 10*time.Millisecond, "tight deadline")
		loose    = flag.Duration("loose", 100*time.Millisecond, "loose deadline (0 = none)")
		tfrac    = flag.Float64("tightfrac", 0.5, "fraction of jobs with the tight deadline")
		imgKB    = flag.Int("image-kb", 1024, "tenant handler code image size (KB)")
		warmFrac = flag.Float64("warmfrac", 0.5, "fraction of tenants percolated at registration")
		seed     = flag.Uint64("seed", 1, "generator seed")
		adapt    = flag.Bool("adapt", false, "enable the adaptivity loop (adaptive batching, shard stealing, overload shedding)")
		scenario = flag.String("scenario", "open", "deterministic seeded load script: open | bursty | ramp | hotkey | sameshard | localhot | shift (open plays localhot under -locality)")
		hotFrac  = flag.Float64("hotfrac", 0.8, "hot-key fraction for -scenario hotkey and shift, hot-object fraction for -scenario localhot")
		locality = flag.Bool("locality", false, "engage the data plane: working-set routing, batch staging, and the locality loop (requires -adapt)")
		compile  = flag.Bool("compile", false, "engage the continuous-compilation controller: key sketches, hot-key fast paths, learned scatter plans")
		hintsF   = flag.String("hints-file", "", "persist the learned policy to this hints script at exit, loading it first when it exists (requires -compile)")
		objects  = flag.Int("objects", 16, "data objects per tenant for -locality / -scenario localhot")
		pipeline = flag.Bool("pipeline", false, "drive 3-stage fan-out dataflow flows (parse -> enrich -> aggregate) through Tenant.SubmitFlow; stages route by their declared working sets")
		fan      = flag.Int("fan", 4, "fan-out width for -pipeline flows")
		observe  = flag.Float64("observe", 0, "flow-trace sample rate in (0,1] (0 = tracing off); sampled flows record span trees in the flight recorder")
		ring     = flag.Int("ring", 256, "flight-recorder capacity (retained flow traces; shed/failed flows retained preferentially)")
		httpAddr = flag.String("http", "", "serve debug endpoints on this address (/debug/serve/metrics, /debug/serve/trace, and the standard /debug/vars and /debug/pprof)")
		dumpTr   = flag.Bool("dump-traces", false, "dump the flight recorder (text span trees) to stderr on shutdown (requires -observe > 0)")
		listen   = flag.String("listen", "", "cluster mode: host:port this node's parcel transport listens on")
		join     = flag.String("join", "", "cluster mode: address of a running member to join (requires -listen)")
		nodes    = flag.Int("nodes", 1, "cluster mode: expected member count; the node waits for the cluster to reach it before driving load")
		detEvery = flag.Duration("detect-every", 250*time.Millisecond, "cluster mode: heartbeat probe period for the failure detector (0 = detector off)")
		detMiss  = flag.Int("detect-misses", 3, "cluster mode: consecutive missed heartbeats before a member is evicted")
		flowTO   = flag.Duration("flow-timeout", 5*time.Second, "cluster mode: origin-side recovery timer per shipped stage; a flow stuck longer re-routes to the current owner (negative = recovery off)")
	)
	flag.Parse()

	for _, check := range []struct {
		bad bool
		msg string
	}{
		{*tenants < 1, "-tenants must be >= 1"},
		{*join != "" && *listen == "", "-join requires -listen (a joining node must be reachable itself)"},
		{*nodes < 1, "-nodes must be >= 1"},
		{*nodes > 1 && *listen == "", "-nodes > 1 requires -listen (a multi-node cluster needs a transport address)"},
		{*rate < 0 || (*rate == 0 && *listen == ""), "-rate must be > 0 (0 is allowed only in cluster mode: host without driving load)"},
		{*duration <= 0, "-duration must be > 0"},
		{*locales < 1, "-locales must be >= 1"},
		{*shards < 1, "-shards must be >= 1"},
		{*locality && !*adapt, "-locality requires -adapt (the locality loop is an adaptivity controller)"},
		{*hintsF != "" && !*compile, "-hints-file requires -compile (there is no learned policy to persist otherwise)"},
		{(*locality || *scenario == "localhot") && *objects < 2, "-objects must be >= 2 for the data plane"},
		{*pipeline && *scenario != "open", "-pipeline and -scenario are exclusive load modes"},
		{*pipeline && *fan < 1, "-fan must be >= 1"},
		{*observe < 0 || *observe > 1, "-observe must be in [0,1]"},
		{*dumpTr && *observe == 0, "-dump-traces requires -observe > 0 (nothing is recorded otherwise)"},
	} {
		if check.bad {
			fmt.Fprintln(os.Stderr, "htserved:", check.msg)
			os.Exit(2)
		}
	}

	if *listen != "" {
		// Cluster mode: the node owns its own litlx.System and
		// serve.Server; the single-process load modes below don't apply.
		runCluster(clusterOpts{
			listen: *listen, join: *join, nodes: *nodes,
			locales: *locales, workers: *workers, shards: *shards, depth: *depth,
			imgKB: *imgKB, rate: *rate, duration: *duration, seed: *seed, work: *work,
			detectEvery: *detEvery, detectMisses: *detMiss, flowTimeout: *flowTO,
		})
		return
	}

	sys, err := litlx.New(litlx.Config{Locales: *locales, WorkersPerLocale: *workers})
	if err != nil {
		fatal(err)
	}
	defer sys.Close()
	cfg := serve.Config{Shards: *shards, QueueDepth: *depth, Batch: *batch}
	if *adapt {
		cfg.Adapt = serve.AdaptConfig{Enabled: true, LatencyBudget: *tight, Locality: *locality}
	}
	if *locality {
		cfg.Data = serve.DataConfig{LocalityRoute: true, Stage: true}
	}
	if *compile {
		ccfg := serve.CompileConfig{Enabled: true}
		if *hintsF != "" {
			db := hints.NewDB()
			if data, err := os.ReadFile(*hintsF); err == nil {
				if perr := hints.ParseScriptString(string(data), db); perr != nil {
					fatal("-hints-file", *hintsF+":", perr)
				}
				fmt.Printf("loaded hints script %s: warm start\n", *hintsF)
			} else if !os.IsNotExist(err) {
				fatal(err)
			}
			ccfg.DB = db
		}
		cfg.Compile = ccfg
	}
	if *pipeline {
		// Pipeline flows exist to route each stage at its data; -locality
		// additionally stages batches, but routing alone is the default.
		cfg.Data.LocalityRoute = true
	}
	if *observe > 0 || *httpAddr != "" {
		// -http alone turns on the flight recorder the trace endpoint
		// reads; -observe adds sampled flow tracing on top.
		cfg.Observe = serve.ObserveConfig{SampleRate: *observe, RingSize: *ring}
	}
	srv := serve.New(sys, cfg)
	defer srv.Close()

	// Flight-recorder shutdown dump: the last thing the process prints,
	// after every report, so a scripted run's "why did those flows die?"
	// answer is always at the tail of stderr.
	if *dumpTr {
		defer func() {
			if r := srv.Recorder(); r != nil {
				r.WriteText(os.Stderr)
			}
		}()
	}
	if *httpAddr != "" {
		serveDebugHTTP(srv, *httpAddr)
	}

	tick, ticks, perTick := scriptGrid(*rate, *duration)
	withDeadlines := func(sc serve.Scenario) serve.Scenario {
		return sc.WithDeadline(*seed, *tfrac, ticksOf(*tight, tick), ticksOf(*loose, tick))
	}
	if *pipeline {
		sc := withDeadlines(serve.OpenLoopScenario(*seed, 1, ticks, perTick, 0, *keys))
		runPipelineFlows(sys, srv, sc, tick, *fan, *locales, *work)
		return
	}

	handler := func(_ *serve.Ctx, req serve.Request) (any, error) {
		spinwork.Work(*work)
		return req.Key, nil
	}
	// With the data plane (or the localhot script) each tenant declares
	// -objects data objects: the first quarter — the "hot" set the
	// localhot scenario hammers — homed together at locale 0, the rest
	// spread round-robin across the remaining locales.
	hotObjs := *objects / 4
	if hotObjs < 1 {
		hotObjs = 1
	}
	var specs []serve.DataObject
	if *locality || *scenario == "localhot" {
		specs = make([]serve.DataObject, *objects)
		for i := range specs {
			home := 0
			if i >= hotObjs && *locales > 1 {
				home = 1 + (i-hotObjs)%(*locales-1)
			}
			specs[i] = serve.DataObject{Size: 2048, Home: home}
		}
	}
	names := make([]string, *tenants)
	handles := make([]*serve.Tenant, *tenants)
	warmed := 0
	for i := range names {
		names[i] = fmt.Sprintf("tenant%03d", i)
		warm := float64(i) < *warmFrac*float64(*tenants)
		if warm {
			warmed++
		}
		tc := serve.TenantConfig{
			Name:     names[i],
			Handler:  handler,
			CodeSize: *imgKB << 10,
			Warm:     warm,
			Objects:  specs,
		}
		if *compile {
			// The tenant's specialized handler form: a promoted hot key
			// runs at a quarter of the general handler's cost, the gain
			// the fast-path table exists to bank.
			tc.Specialize = func(uint64) serve.Handler {
				return func(_ *serve.Ctx, req serve.Request) (any, error) {
					spinwork.Work(*work / 4)
					return req.Key, nil
				}
			}
		}
		tn, err := srv.RegisterTenant(tc)
		if err != nil {
			fatal(err)
		}
		handles[i] = tn
	}
	fmt.Printf("htserved: %d tenants (%d warm) on %d shards, image %dKB "+
		"(modeled cold-start transfer: %d cycles)\n",
		*tenants, warmed, *shards, *imgKB, handles[0].TransferCycles())
	name := *scenario
	if name == "open" && *locality {
		// Open traffic that declares working sets: hotfrac of it reads a
		// hot (locale-0) object plus a sidecar, 30% writing the sidecar.
		name = "localhot"
	}
	var sc serve.Scenario
	switch name {
	case "open":
		sc = serve.OpenLoopScenario(*seed, *tenants, ticks, perTick, *skew, *keys)
	case "bursty":
		sc = serve.BurstyScenario(*seed, *tenants, ticks, perTick, 10, 8*perTick, *keys)
	case "ramp":
		sc = serve.RampScenario(*seed, *tenants, ticks, 2*perTick, *keys)
	case "hotkey":
		sc = serve.HotKeyScenario(*seed, *tenants, ticks, perTick, *keys, *hotFrac)
	case "sameshard":
		sc = serve.SameShardScenario(*seed, ticks, perTick, *shards, names[0])
	case "localhot":
		sc = serve.LocalHotScenario(*seed, *tenants, ticks, perTick, *objects, hotObjs, *hotFrac, 0.3, *keys)
	case "shift":
		sc = serve.ShiftScenario(*seed, *tenants, ticks, perTick, *keys, *hotFrac)
	default:
		fmt.Fprintf(os.Stderr, "htserved: unknown -scenario %q\n", *scenario)
		os.Exit(2)
	}
	sc = withDeadlines(sc)
	fmt.Printf("playing scenario %q: %d arrivals over %d ticks of %v (adapt=%v, locality=%v)...\n",
		sc.Name, sc.Offered(), sc.Ticks, tick, *adapt, *locality)
	rep := serve.PlayScenario(srv, sc, serve.PlayConfig{Tenants: handles, Tick: tick})

	tab := stats.NewTable("htserved load report", "metric", "value")
	tab.AddRow("offered", rep.Offered)
	tab.AddRow("completed", rep.Completed)
	tab.AddRow("rejected (backpressure)", rep.Rejected)
	tab.AddRow("shed (deadline)", rep.Shed)
	tab.AddRow("failed", rep.Failed)
	tab.AddRow("double resolves / unresolved", fmt.Sprintf("%d / %d", rep.DoubleResolves, rep.Unresolved))
	tab.AddRow("shed+reject rate", fmt.Sprintf("%.1f%%", 100*rep.ShedRate()))
	tab.AddRow("throughput jobs/s", fmt.Sprintf("%.1f", rep.Throughput))
	tab.AddRow("p50 latency", rep.P50)
	tab.AddRow("p99 latency", rep.P99)
	tab.AddRow("max latency", rep.Max)
	fmt.Println(tab.String())

	st, as := srv.Stats(), srv.AdaptStats()
	fmt.Printf("server: %d batches for %d jobs (%.1f jobs/batch), %d cold code transfers, latency EWMA %.0fus\n",
		st.Batches, st.Done, float64(st.Done)/float64(max(st.Batches, 1)), st.CodeTransfers, st.LatencyEWMAus)
	if *adapt {
		fmt.Printf("adapt: %d steals over %d rebalances, batch bounds %v (%d grows, %d shrinks), "+
			"%d low-priority sheds at level %d, wait EWMA %.0fus, imbalance %.2f\n",
			as.Steals, as.Rebalances, as.BatchSizes, as.BatchGrows, as.BatchShrinks,
			as.ShedLowPriority, as.ShedLevel, st.WaitEWMAus, as.Imbalance)
	}
	if *compile {
		fmt.Printf("compile: %d plans (%d swaps), %d hot-key promotions / %d demotions, "+
			"%d fast-path hits, %d scattered elements\n",
			as.CompilePlans, as.CompileSwaps, as.HotPromotions, as.HotDemotions,
			as.FastPathHits, as.ScatteredElems)
		if *hintsF != "" {
			script, err := srv.HintsDB().ScriptString()
			if err == nil {
				err = os.WriteFile(*hintsF, []byte(script), 0o644)
			}
			if err != nil {
				fatal(err)
			}
			fmt.Printf("wrote learned policy to %s\n", *hintsF)
		}
	}
	if sp := sys.Space.Stats(); sp.Reads+sp.Writes > 0 {
		fmt.Printf("data: %d accesses (%.1f%% remote), modeled cost %d, %d staged, "+
			"%d migrations, %d replications\n",
			sp.Reads+sp.Writes, 100*sys.Space.RemoteFraction(), sp.TotalCost,
			st.DataStaged, as.Migrations, as.Replications)
	}
	if ob := srv.Snapshot().Observe; ob.Enabled {
		fmt.Printf("observe: %d traced flows (rate %.3g), %d in flight recorder, %d adapt events (%d dropped)\n",
			ob.TracedFlows, ob.SampleRate, ob.Recorded, ob.AdaptEvents, ob.DroppedEvents)
	}
}

// serveDebugHTTP exposes the server's observability surface over HTTP:
// /debug/serve/metrics (the JSON Snapshot, the one place it is
// published), /debug/serve/trace (the adapt timeline plus
// flight-recorder span trees), plus expvar's process variables at
// /debug/vars and net/http/pprof, both registered on the default mux by
// their packages. The listener binds before returning so callers can
// poll immediately; serving runs in the background for the lifetime of
// the load run.
func serveDebugHTTP(srv *serve.Server, addr string) {
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
	http.HandleFunc("/debug/serve/metrics", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, srv.Snapshot())
	})
	http.HandleFunc("/debug/serve/trace", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, srv.TraceDump())
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal("-http:", err)
	}
	fmt.Printf("debug endpoints on http://%s/debug/serve/metrics\n", ln.Addr())
	go func() { _ = http.Serve(ln, nil) }()
}

// runPipelineFlows is the -pipeline mode: a dedicated tenant registers
// the V4-shaped object set (a hot document and result at locale 0,
// element blocks spread across the remaining locales), compiles a
// 3-stage fan-out pipeline whose stages declare their working sets, and
// plays sc with every arrival submitted as a whole flow. Each stage
// burns -work spin units; an arrival's deadline is its flow's, which the
// pipeline propagates to every stage.
func runPipelineFlows(sys *litlx.System, srv *serve.Server, sc serve.Scenario, tick time.Duration,
	fan, locales int, work int64) {
	specs := make([]serve.DataObject, fan+2)
	specs[0] = serve.DataObject{Size: 2048, Home: 0}
	for j := 1; j <= fan; j++ {
		home := 0
		if locales > 1 {
			home = 1 + (j-1)%(locales-1)
		}
		specs[j] = serve.DataObject{Size: 2048, Home: home}
	}
	specs[fan+1] = serve.DataObject{Size: 512, Home: 0}
	tn, err := srv.RegisterTenant(serve.TenantConfig{
		Name:    "flows",
		Handler: func(_ *serve.Ctx, req serve.Request) (any, error) { return req.Payload, nil },
		Objects: specs,
	})
	if err != nil {
		fatal(err)
	}
	objs := tn.Objects()
	doc, elems, result := objs[0:1], objs[1:fan+1], objs[fan+1:fan+2]
	pl, err := tn.NewPipeline("fan",
		serve.Stage{Name: "parse",
			WorkingSet: func(any) []mem.ObjID { return doc },
			Handler: func(_ *serve.Ctx, _ serve.Request) (any, error) {
				spinwork.Work(work)
				parts := make([]any, fan)
				for i := range parts {
					parts[i] = i
				}
				return parts, nil
			}},
		serve.Stage{Name: "enrich", Map: true,
			Key:        func(v any) uint64 { return uint64(v.(int)) },
			WorkingSet: func(v any) []mem.ObjID { return elems[v.(int) : v.(int)+1] },
			Handler: func(_ *serve.Ctx, req serve.Request) (any, error) {
				spinwork.Work(work)
				return req.Payload, nil
			}},
		serve.Stage{Name: "aggregate",
			WorkingSet: func(any) []mem.ObjID { return result },
			WriteSet:   func(any) []mem.ObjID { return result },
			Handler: func(_ *serve.Ctx, req serve.Request) (any, error) {
				spinwork.Work(work)
				return len(req.Payload.([]any)), nil
			}},
	)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("playing %d flows over %d ticks of %v through a 3-stage fan-out pipeline (width %d, locality-routed stages)...\n",
		sc.Offered(), sc.Ticks, tick, fan)
	rep := serve.PlayScenario(srv, sc, serve.PlayConfig{
		Tenants: []*serve.Tenant{tn}, Tick: tick,
		Submit: func(a serve.Arrival, req serve.Request, done func(serve.Result)) error {
			req.Payload = a.Key
			return tn.SubmitFlowFunc(pl, req, done)
		},
	})

	tab := stats.NewTable("htserved pipeline flow report", "metric", "value")
	tab.AddRow("flows offered", rep.Offered)
	tab.AddRow("flows completed", rep.Completed)
	tab.AddRow("flows rejected", rep.Rejected)
	tab.AddRow("flows shed", rep.Shed)
	tab.AddRow("flows failed", rep.Failed)
	tab.AddRow("flows double-resolved / unresolved", fmt.Sprintf("%d / %d", rep.DoubleResolves, rep.Unresolved))
	tab.AddRow("throughput flows/s", fmt.Sprintf("%.1f", rep.Throughput))
	tab.AddRow("p50 flow latency", rep.P50)
	tab.AddRow("p99 flow latency", rep.P99)
	fmt.Println(tab.String())

	st := srv.Stats()
	fmt.Printf("flows: %d submitted, %d stage jobs (%d fan-out elements), %d stage steals\n",
		st.Flow.Submitted, st.Flow.StageJobs, st.Flow.FanOut, st.Flow.StageSteals)
	stab := stats.NewTable("pipeline stages", "stage", "done", "shed", "failed", "fanout", "steals", "local", "remote")
	for _, ss := range pl.StageStats() {
		stab.AddRow(ss.Name, ss.Done, ss.Shed, ss.Failed, ss.FanOut, ss.Steals, ss.LocalExec, ss.RemoteExec)
	}
	fmt.Println(stab.String())
	if sp := sys.Space.Stats(); sp.Reads+sp.Writes > 0 {
		fmt.Printf("data: %d accesses (%.1f%% remote), modeled cost %d\n",
			sp.Reads+sp.Writes, 100*sys.Space.RemoteFraction(), sp.TotalCost)
	}
}

// fatal reports a startup or runtime failure and exits 1 (flag misuse
// exits 2, from main's check table).
func fatal(args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"htserved:"}, args...)...)
	os.Exit(1)
}

// scriptGrid sizes a seeded script from -rate and -duration: 1ms ticks
// of rate/1000 arrivals each, or — below 1000/s, where that rounds to
// nothing — one arrival per tick of 1/rate.
func scriptGrid(rate float64, duration time.Duration) (tick time.Duration, ticks, perTick int) {
	tick = time.Millisecond
	if rate*tick.Seconds() < 1 {
		tick = time.Duration(float64(time.Second) / rate)
	}
	return tick, max(1, int(duration/tick)), max(1, int(rate*tick.Seconds()))
}

// ticksOf converts a deadline flag to whole ticks of a script, rounding
// up: a positive duration shorter than a tick is one tick, never "no
// deadline".
func ticksOf(d, tick time.Duration) int {
	if d <= 0 {
		return 0
	}
	return int((d + tick - 1) / tick)
}
