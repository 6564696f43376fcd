package exp

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/litlx"
	"repro/internal/mem"
	"repro/internal/serve"
	"repro/internal/stats"
)

func init() {
	register("V4", ExpPipelineDataflow)
}

// v4 payload tags for the resubmission baseline, whose single handler
// must dispatch the stage itself — the caller round-trips every
// intermediate value.
type v4Parse struct{ width int }
type v4Enrich struct{ part int }
type v4Agg struct{ parts []any }

// ExpPipelineDataflow is the pipeline experiment: the same three-stage
// fan-out workload — parse a hot document (locale 0), enrich each of
// its parts against an element block (locale 1), aggregate into a
// result object (locale 0); the localhot shape of hot objects at one
// locale with sidecars elsewhere — executed two ways.
//
// The pipeline run submits one flow per document through
// Tenant.SubmitFlow: each stage carries a routing declaration deriving
// its working set from the previous value, so under
// Config.Data.LocalityRoute every stage admits at its data's home
// locale and the intermediate values chain shard-to-shard,
// never returning to the caller. The resubmission baseline drives the
// same stages through per-stage Submit round trips: the caller receives
// each intermediate value and resubmits the next stage, and because
// each resubmission routes by the (tenant, key) hash, roughly half the
// modeled accesses land at the wrong locale.
//
// access_cost / remote_frac / cost_per_flow come from the shared
// mem.Space directory and are deterministic (routing is pure hashing
// or pure majority-home lookup, and nothing replicates or migrates in
// either run); p50_ms is wall clock, shape-stable.
func ExpPipelineDataflow(scale int) *Result {
	res := newResult("V4", "EXP-V4: shard-chained pipeline vs per-stage resubmission (3-stage fan-out, localhot working set)",
		"config", "flows", "done", "access_cost", "remote_frac", "cost_per_flow", "p50_ms")

	const (
		locales = 2
		shards  = 4
		width   = 4
		wave    = 24 // concurrently outstanding flows
	)
	flows := 120 * scale

	// Objects: [0] the hot document at locale 0, [1..width] element
	// blocks at locale 1, [width+1] the result object at locale 0.
	specs := make([]serve.DataObject, width+2)
	specs[0] = serve.DataObject{Size: 2048, Home: 0}
	for j := 1; j <= width; j++ {
		specs[j] = serve.DataObject{Size: 2048, Home: 1}
	}
	specs[width+1] = serve.DataObject{Size: 512, Home: 0}

	flowKey := func(i int) uint64 { return uint64(i)*0x9E3779B97F4A7C15 + 1 }
	elemKey := func(part int) uint64 { return uint64(part)*0xFF51AFD7ED558CCD + 7 }
	parts := func() []any {
		ps := make([]any, width)
		for j := range ps {
			ps[j] = j
		}
		return ps
	}

	newSys := func() *litlx.System {
		sys, err := litlx.New(litlx.Config{Locales: locales, WorkersPerLocale: 8})
		if err != nil {
			panic(err)
		}
		return sys
	}
	p50 := func(lat []float64) float64 {
		sort.Float64s(lat)
		return stats.Quantile(lat, 0.50)
	}

	// --- pipeline run: shard-chained flows, locality-routed stages ---
	runPipeline := func() (p50ms float64, st serve.Stats, sp mem.SpaceStats, ss []serve.StageStats) {
		sys := newSys()
		defer sys.Close()
		srv := serve.New(sys, serve.Config{
			Shards: shards, QueueDepth: 1024, Batch: 8,
			Data: serve.DataConfig{LocalityRoute: true},
		})
		defer srv.Close()
		tn, err := srv.RegisterTenant(serve.TenantConfig{
			Name:    "t0",
			Handler: func(_ *serve.Ctx, req serve.Request) (any, error) { return req.Payload, nil },
			Objects: specs,
		})
		if err != nil {
			panic(err)
		}
		objs := tn.Objects()
		doc, elems, result := objs[0:1], objs[1:width+1], objs[width+1:width+2]
		pl, err := tn.NewPipeline("fan",
			serve.Stage{Name: "parse",
				WorkingSet: func(any) []mem.ObjID { return doc },
				Handler: func(_ *serve.Ctx, _ serve.Request) (any, error) {
					spinWork(20)
					return parts(), nil
				}},
			serve.Stage{Name: "enrich", Map: true,
				Key:        func(v any) uint64 { return elemKey(v.(int)) },
				WorkingSet: func(v any) []mem.ObjID { return elems[v.(int) : v.(int)+1] },
				Handler: func(_ *serve.Ctx, req serve.Request) (any, error) {
					spinWork(20)
					return req.Payload, nil
				}},
			serve.Stage{Name: "aggregate",
				WorkingSet: func(any) []mem.ObjID { return result },
				WriteSet:   func(any) []mem.ObjID { return result },
				Handler: func(_ *serve.Ctx, req serve.Request) (any, error) {
					spinWork(20)
					return len(req.Payload.([]any)), nil
				}},
		)
		if err != nil {
			panic(err)
		}
		lat := make([]float64, 0, flows)
		for base := 0; base < flows; base += wave {
			n := wave
			if base+n > flows {
				n = flows - base
			}
			tks := make([]*serve.Ticket, n)
			for i := 0; i < n; i++ {
				tk, err := tn.SubmitFlow(pl, serve.Request{Key: flowKey(base + i), Payload: base + i})
				if err != nil {
					panic(err)
				}
				tks[i] = tk
			}
			for _, tk := range tks {
				r := tk.Wait()
				if r.Status != serve.StatusOK {
					panic(fmt.Sprintf("exp V4: pipeline flow ended %v (err %v)", r.Status, r.Err))
				}
				lat = append(lat, float64(r.Total)/float64(time.Millisecond))
			}
		}
		return p50(lat), srv.Stats(), sys.Space.Stats(), pl.StageStats()
	}

	// --- resubmission baseline: the caller drives each stage by hand ---
	runResubmit := func() (p50ms float64, st serve.Stats, sp mem.SpaceStats) {
		sys := newSys()
		defer sys.Close()
		srv := serve.New(sys, serve.Config{Shards: shards, QueueDepth: 1024, Batch: 8})
		defer srv.Close()
		tn, err := srv.RegisterTenant(serve.TenantConfig{
			Name: "t0",
			Handler: func(_ *serve.Ctx, req serve.Request) (any, error) {
				spinWork(20)
				switch pl := req.Payload.(type) {
				case v4Parse:
					return parts(), nil
				case v4Enrich:
					return pl.part, nil
				case v4Agg:
					return len(pl.parts), nil
				}
				return nil, fmt.Errorf("exp V4: unknown stage payload %T", req.Payload)
			},
			Objects: specs,
		})
		if err != nil {
			panic(err)
		}
		objs := tn.Objects()
		doc, elems, result := objs[0:1], objs[1:width+1], objs[width+1:width+2]
		oneFlow := func(i int) float64 {
			start := time.Now()
			tk, err := tn.Submit(serve.Request{Key: flowKey(i), Payload: v4Parse{width}, WorkingSet: doc})
			if err != nil {
				panic(err)
			}
			r := tk.Wait()
			if r.Status != serve.StatusOK {
				panic(fmt.Sprintf("exp V4: resubmit parse ended %v", r.Status))
			}
			ps := r.Value.([]any)
			reqs := make([]serve.Request, len(ps))
			for j, part := range ps {
				reqs[j] = serve.Request{
					Key: elemKey(part.(int)), Payload: v4Enrich{part.(int)},
					WorkingSet: elems[part.(int) : part.(int)+1],
				}
			}
			vals := make([]any, len(ps))
			for j, etk := range tn.SubmitMany(reqs) {
				er := etk.Wait()
				if er.Status != serve.StatusOK {
					panic(fmt.Sprintf("exp V4: resubmit enrich ended %v", er.Status))
				}
				vals[j] = er.Value
			}
			atk, err := tn.Submit(serve.Request{
				Key: flowKey(i), Payload: v4Agg{vals},
				WorkingSet: result, WriteSet: result,
			})
			if err != nil {
				panic(err)
			}
			if ar := atk.Wait(); ar.Status != serve.StatusOK {
				panic(fmt.Sprintf("exp V4: resubmit aggregate ended %v", ar.Status))
			}
			return float64(time.Since(start)) / float64(time.Millisecond)
		}
		lat := make([]float64, flows)
		for base := 0; base < flows; base += wave {
			n := wave
			if base+n > flows {
				n = flows - base
			}
			done := make(chan struct{})
			for i := 0; i < n; i++ {
				i := i
				go func() {
					lat[base+i] = oneFlow(base + i)
					done <- struct{}{}
				}()
			}
			for i := 0; i < n; i++ {
				<-done
			}
		}
		return p50(lat), srv.Stats(), sys.Space.Stats()
	}

	remoteFrac := func(sp mem.SpaceStats) float64 {
		if t := sp.Reads + sp.Writes; t > 0 {
			return float64(sp.RemoteReads+sp.RemoteWrites) / float64(t)
		}
		return 0
	}

	subP50, subStats, subSpace := runResubmit()
	pipeP50, pipeStats, pipeSpace, stageStats := runPipeline()

	pipeCost := float64(pipeSpace.TotalCost) / float64(flows)
	subCost := float64(subSpace.TotalCost) / float64(flows)
	res.Table.AddRow("resubmit (hash-routed)", flows, subStats.Done,
		subSpace.TotalCost, remoteFrac(subSpace), subCost, subP50)
	res.Table.AddRow("pipeline (locality-routed flows)", flows, pipeStats.Flow.Completed,
		pipeSpace.TotalCost, remoteFrac(pipeSpace), pipeCost, pipeP50)

	res.Metrics["pipeline_cost_per_flow"] = pipeCost
	res.Metrics["resubmit_cost_per_flow"] = subCost
	res.Metrics["pipeline_remote_frac"] = remoteFrac(pipeSpace)
	res.Metrics["resubmit_remote_frac"] = remoteFrac(subSpace)
	if pipeCost > 0 {
		res.Metrics["modeled_speedup"] = subCost / pipeCost
	}
	res.Metrics["pipeline_p50_ms"] = pipeP50
	res.Metrics["resubmit_p50_ms"] = subP50
	res.Metrics["pipeline_fanout"] = float64(pipeStats.Flow.FanOut)
	res.Metrics["pipeline_stage_jobs"] = float64(pipeStats.Flow.StageJobs)

	// The experiment's claims, enforced: every flow completed through
	// the pipeline with its fan-out fully issued; the three
	// locality-routed stages executed entirely on local data; and the
	// modeled access cost undercuts per-stage resubmission.
	if pipeStats.Flow.Completed != int64(flows) {
		panic(fmt.Sprintf("exp V4: %d of %d pipeline flows completed", pipeStats.Flow.Completed, flows))
	}
	if pipeStats.Flow.FanOut != int64(flows*width) {
		panic(fmt.Sprintf("exp V4: fan-out issued %d elements, want %d", pipeStats.Flow.FanOut, flows*width))
	}
	for _, ss := range stageStats {
		if ss.RemoteExec != 0 {
			panic(fmt.Sprintf("exp V4: stage %s executed %d times on remote data under locality routing", ss.Name, ss.RemoteExec))
		}
	}
	if rf := remoteFrac(pipeSpace); rf > 0.02 {
		panic(fmt.Sprintf("exp V4: pipeline remote fraction %.3f, want ~0", rf))
	}
	if pipeSpace.TotalCost >= subSpace.TotalCost {
		panic(fmt.Sprintf("exp V4: pipeline modeled cost %d not below resubmission %d",
			pipeSpace.TotalCost, subSpace.TotalCost))
	}
	return res
}
