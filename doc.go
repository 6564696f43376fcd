// Package htvm is a reproduction of "Hierarchical Multithreading:
// Programming Model and System Software" (Gao, Sterling, Stevens,
// Hereld, Zhu — IPDPS 2006): the HTVM three-level thread hierarchy
// (LGT/SGT/TGT), the LITL-X latency-tolerance constructs (parcels,
// futures, percolation, dataflow synchronization, atomic blocks), the
// continuous compiler with SSP loop scheduling, the structured-hints
// knowledge database, the runtime monitor, the four adaptivity
// controllers, and a Cyclops-64-like simulator substrate — plus the two
// driving applications (neocortex simulation, molecular dynamics).
//
// The serving path closes the paper's adaptivity loop end to end:
// internal/monitor's always-on instruments (queue-depth EWMAs, batch
// latency histograms, the admission-to-execution wait EWMA, the shared
// mem.Space access statistics) feed four runtime controllers in
// internal/serve — per-shard adaptive batch sizing, a stealing
// rebalancer built on adapt.LoadController that preserves same-key
// admission order and code/data residency, a priority-aware overload
// controller, and a locality loop built on adapt.LocalityManager —
// enabled by serve.Config.Adapt and compared against static configs on
// deterministic scenario scripts (serve.PlayScenario, experiments V2
// and V3). The serving path is also locale-aware end to end
// (serve.Config.Data): admission shards pin to locales, requests
// declare mem.Space working sets that steer routing toward their data's
// home, and a unified residency subsystem percolates code images and
// data blocks alike to the site of computation, each transfer priced by
// one closed form (pinned by a test to the simulated percolation models
// in internal/percolate, which the serving build does not link). On top of both rides the dataflow
// serving surface (serve.Pipeline / Tenant.SubmitFlow): multi-stage
// flows whose intermediate values are chained shard-to-shard — each
// stage's routing declaration derives the next working set, the
// producing shard admits the next stage where it routes (a stage that
// routes back to the producing shard joins the running batch as a
// continuation, TGT-grain work inside the SGT already there), Map
// stages fan out and join when their element count reaches zero, and
// flow-scoped deadlines shed the remaining stages the moment they
// expire (experiment V4 measures pipelines against per-stage
// resubmission). Plain Submit is the degenerate one-stage pipeline.
//
// The same monitoring methodology turns outward as the serving path's
// observability layer (serve.Config.Observe): deterministically sampled
// per-flow traces whose events — admit, batch, steal, dispatch, stage
// hop, percolation, shed/fail/complete — are attributed to the shard
// and locale they happened on and merge (trace.Merge's deterministic
// total order) into span trees; a bounded flight recorder that retains
// shed and failed flows, each carrying the adaptivity decision that
// killed it; the controllers' shared adapt-decision timeline
// (Server.TraceDump); and Server.Snapshot metrics export — per-shard
// queue-depth/batch-size histograms and per-tenant wait/latency EWMAs —
// published via expvar and htserved's /debug/serve/ HTTP endpoints.
// Disabled, the whole layer costs one nil check on the hot path
// (BENCH_serve.json is the committed allocation baseline, gated in CI
// by scripts/bench_serve.sh -check).
//
// The cluster subsystem (internal/cluster) takes the serving path
// multi-node: each node is a process hosting its own litlx.System and
// serve.Server plus one contiguous arc of the global locale space,
// assigned by a consistent-hash ring over a small join/leave membership
// protocol. Parcels between nodes ride the parcel.Transport interface —
// the in-process parcel.Fabric for deterministic replay, or
// internal/cluster/netparcel's binary-framed TCP transport with one
// connection per peer, sender-side combined writes, one-way parcels run
// on the read loop, and bounded outstanding-call windows. Admission routes across node boundaries,
// pipeline flows chain machine-to-machine with done-exactly-once
// completion parcels, code images and global objects percolate as real
// bytes (single-flight, counted), and flow traces stitch across nodes
// by flow id (experiment V5 compares one node against three; htserved's
// -listen/-join/-nodes flags run a real cluster from several shells).
//
// The implementation lives under internal/; see README.md for the map
// and the measured results, and ROADMAP.md's item "a paper-to-code
// ledger, then a prune" for the planned ledger (construct, package,
// test or experiment, number).
// Entry points:
//
//	internal/litlx    — the one-object API most programs want
//	internal/serve    — the job service layer (API v2): tenant handles,
//	                    error-aware handlers + middleware, locale-pinned
//	                    sharded admission where the submit spawns the
//	                    shard's batch SGT (no dispatcher thread),
//	                    batching + burst admission,
//	                    shard-chained dataflow pipelines (SubmitFlow)
//	                    with same-shard continuations,
//	                    shedding, code/data residency and the locality-
//	                    aware data plane, flow tracing + flight recorder
//	                    + metrics export (Config.Observe)
//	internal/cluster  — multi-node serving: membership, the locale ring,
//	                    cross-node flows and percolation; netparcel is
//	                    the TCP transport
//	cmd/htvmbench     — regenerates every experiment table
//	cmd/htserved      — the job server under deterministic seeded
//	                    scenario scripts (-scenario, -adapt, -locality),
//	                    single requests or dataflow flows (-pipeline);
//	                    -observe/-http expose traces and metrics over
//	                    /debug/serve/ endpoints
//	cmd/litlxc        — the LITL-X script compiler/driver
//	cmd/c64sim        — the standalone machine simulator
//	examples/         — five runnable walkthroughs
package htvm
