package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/part"
)

// setupReps is how many times a run builds its inputs; setup_s is the
// median, so one slow build (a GC, a noisy neighbour) does not move it.
const setupReps = 5

// tracedLoopShare is the part of -seconds a traced batch run spends in its
// closed loop; the rest goes to the Workers=1, caching-off and replay
// variants, so a traced run takes about as long as an untraced one.
const tracedLoopShare = 0.5

// batchSpec is one closed-loop workload: a seeded input, the snapshot's
// rank count and the query every run executes.
type batchSpec struct {
	generate func(seed uint64) *graph.Graph
	ranks    int
	opt      lcc.Options
	// sloMS is the latency limit slo_ok_frac counts runs against.
	sloMS float64
}

var batchSpecs = map[string]batchSpec{
	// The paper's non-cached Algorithm 3 on a scale-free graph: the
	// intersection kernel does most of the host work and the rank
	// scheduler sees the degree skew; CLaMPI is off.
	"pull-rmat": {
		generate: func(seed uint64) *graph.Graph {
			return gen.RMAT(gen.DefaultRMAT(15, 16, graph.Undirected, seed))
		},
		ranks: 16,
		opt:   lcc.Options{Method: intersect.MethodHybrid, DoubleBuffer: true},
		sloMS: 1500,
	},
	// Both CLaMPI caches on a uniform graph whose working set is far
	// larger than C_adj: most host time is cache insert and evict churn,
	// and the per-rank load is balanced.
	"churn-uniform": {
		generate: func(seed uint64) *graph.Graph {
			return gen.ErdosRenyi(1<<15, 1<<19, graph.Undirected, seed)
		},
		ranks: 8,
		opt: lcc.Options{Method: intersect.MethodHybrid, DoubleBuffer: true,
			Caching: true, OffsetsCacheBytes: 256 << 10, AdjCacheBytes: 1 << 20, DegreeScores: true},
		sloMS: 3000,
	},
}

// oracle is the expected output of every run on one graph, computed by
// the single-node kernel outside the timed region.
type oracle struct {
	triangles int64
	sumT      int64
	lcc       []float64
}

func newOracle(g *graph.Graph) oracle {
	sh := lcc.SharedLCC(g, intersect.MethodHybrid)
	var sum int64
	for _, t := range sh.PerVertex {
		sum += t
	}
	return oracle{triangles: sh.Triangles, sumT: sum, lcc: sh.LCC}
}

// check compares one distributed result with the oracle; it returns a
// description of the first difference, or "".
func (or oracle) check(res *lcc.Result) string {
	switch {
	case res.Triangles != or.triangles:
		return fmt.Sprintf("triangles %d, oracle %d", res.Triangles, or.triangles)
	case res.SumT != or.sumT:
		return fmt.Sprintf("sum_t %d, oracle %d", res.SumT, or.sumT)
	case len(res.LCC) != len(or.lcc):
		return fmt.Sprintf("%d scores, oracle %d", len(res.LCC), len(or.lcc))
	}
	for v, x := range res.LCC {
		if math.Float64bits(x) != math.Float64bits(or.lcc[v]) {
			return fmt.Sprintf("lcc[%d] = %v, oracle %v", v, x, or.lcc[v])
		}
	}
	return ""
}

// runBatch runs pull-rmat or churn-uniform: setupReps set-ups, the oracle
// and one warm-up run, then back-to-back runs for -seconds (a closed loop
// with one caller). A traced run also times the Workers=1 and caching-off
// variants and replays every intersection through the kernel alone.
func runBatch(cfg config, o *outcome, rec *Recorder) error {
	spec := batchSpecs[cfg.workload]
	ctx := context.Background()

	var g *graph.Graph
	var snap *lcc.Snapshot
	var setupMS, genMS, prepMS, buildMS []float64
	for i := 1; i <= setupReps; i++ {
		root, end := rec.Begin("setup", 0, i)
		t0 := time.Now()
		raw := spec.generate(cfg.seed)
		t1 := time.Now()
		g = gen.Prepare(raw, cfg.seed)
		t2 := time.Now()
		var err error
		snap, err = lcc.NewSnapshot(g, spec.ranks, part.Block, 0)
		t3 := time.Now()
		end()
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		rec.Add("gen", root, i, t0, t1)
		rec.Add("prepare", root, i, t1, t2)
		rec.Add("snapshot", root, i, t2, t3)
		setupMS = append(setupMS, ms(float64(t3.Sub(t0))))
		genMS = append(genMS, ms(float64(t1.Sub(t0))))
		prepMS = append(prepMS, ms(float64(t2.Sub(t1))))
		buildMS = append(buildMS, ms(float64(t3.Sub(t2))))
	}
	_, end := rec.Begin("oracle", 0, 0)
	or := newOracle(g)
	end()
	// Start the timed runs from a collected heap, whatever garbage the
	// set-ups and the oracle left behind.
	runtime.GC()

	opt := spec.opt
	opt.Workers = runtime.GOMAXPROCS(0)
	runs := setupReps // run ids follow the set-up ids
	// exec runs one query under a span and checks its output; want is the
	// SimTime every run of this configuration must reproduce bit for bit
	// (0 before the first run).
	exec := func(name string, opt lcc.Options, r *Recorder, want float64) (*lcc.Result, float64) {
		runs++
		_, end := r.Begin(name, 0, runs)
		t := time.Now()
		res, err := snap.RunCtx(ctx, opt)
		wall := since(t)
		end()
		o.attempted++
		if err != nil {
			o.fail(fmt.Sprintf("%s %d: %v", name, runs, err))
			return nil, wall
		}
		if msg := or.check(res); msg != "" {
			o.fail(fmt.Sprintf("%s %d: %s", name, runs, msg))
		} else if want != 0 && math.Float64bits(res.SimTime) != math.Float64bits(want) {
			o.fail(fmt.Sprintf("%s %d: sim time %v, first run %v", name, runs, res.SimTime, want))
		}
		return res, wall
	}

	first, firstMS := exec("run.first", opt, rec, 0)
	if first == nil {
		return fmt.Errorf("first run: %v", o.mismatch)
	}
	sim := first.SimTime

	loop := time.Duration(cfg.seconds * float64(time.Second))
	if rec != nil {
		loop = time.Duration(float64(loop) * tracedLoopShare)
	}
	var runMS, tracedMS, plainMS []float64
	okInSLO := 0
	deadline := time.Now().Add(loop)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		// A traced run records every other run, so the two halves give
		// the tracing overhead.
		r := rec
		if i%2 == 1 {
			r = nil
		}
		res, wall := exec("run", opt, r, sim)
		runMS = append(runMS, wall)
		if r != nil {
			tracedMS = append(tracedMS, wall)
		} else {
			plainMS = append(plainMS, wall)
		}
		if res != nil && wall <= spec.sloMS {
			okInSLO++
		}
	}

	o.set("setup_s", median(setupMS)/1000)
	o.set("run_ms_p50", median(runMS))
	q, tailMS, ok := tail(runMS)
	o.set("run_ms_tail", tailMS)
	o.notef("%s: run_ms_tail is p%d of %d runs (enough samples: %v); setup_s is the median of %d set-ups",
		cfg.workload, q, len(runMS), ok, setupReps)
	o.set("sim_ms", ms(sim))
	o.set("peak_rss_mb", peakRSSMiB(0))
	// One closed-loop caller is one load level: both suffixes carry its
	// latencies, so every workload prints every end-to-end metric.
	for _, lvl := range []string{"low", "high"} {
		o.set("lat_ms_p50."+lvl, median(runMS))
		o.set("lat_ms_tail."+lvl, tailMS)
	}
	o.set("slo_ok_frac", float64(okInSLO)/float64(len(runMS)))
	if rec == nil {
		return nil
	}

	o.set("gen.generate_ms", median(genMS))
	o.set("gen.prepare_ms", median(prepMS))
	o.set("snapshot.build_ms", median(buildMS))
	o.set("snapshot.local_bytes", float64(snap.LocalBytes()))
	graphLayer(o, g)
	engineLayer(o, first)
	o.set("lcc.first_run_ms", firstMS)
	o.set("lcc.run_ms", median(runMS))
	o.set("trace.overhead_frac", median(tracedMS)/median(plainMS)-1)

	w1 := opt
	w1.Workers = 1
	_, w1MS := exec("run.w1", w1, rec, sim)
	o.set("sched.run_ms_w1", w1MS)
	o.set("sched.speedup", w1MS/median(runMS))
	hostMS := 0.0 // caching already off: CLaMPI costs nothing
	if opt.Caching {
		off := w1
		off.Caching = false
		_, offMS := exec("run.nocache_w1", off, rec, 0)
		hostMS = w1MS - offMS
	}
	o.set("clampi.host_ms", hostMS)

	_, end = rec.Begin("intersect.replay", 0, 0)
	rp := replay(g)
	end()
	o.attempted++
	if rp.sumT != or.sumT {
		o.fail(fmt.Sprintf("intersect replay: sum %d, oracle sum_t %d", rp.sumT, or.sumT))
	}
	o.set("intersect.replay_ms", rp.wallMS)
	o.set("intersect.calls", float64(rp.calls))
	o.set("intersect.ops", float64(rp.ops))
	o.set("intersect.share", rp.wallMS/w1MS)

	for _, d := range layerMetrics {
		if daemonLayer(d.name) {
			o.set(d.name, 0)
		}
	}
	return nil
}

// daemonLayer reports whether a per-layer metric belongs to the serving
// side (lccd, its HTTP surface and the load generator), which a batch
// workload never reaches.
func daemonLayer(name string) bool {
	for _, p := range []string{"serve.", "lccd.", "http.", "loadgen."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// replayResult is one pass of the intersection kernel over every arc.
type replayResult struct {
	sumT, calls, ops int64
	wallMS           float64
}

// replay runs the intersection the engine performs for every arc (u, v),
// adj(u) ∩ adj(v) above v, through the kernel alone on one goroutine:
// the kernel's share of a Workers=1 run, without the RMA model around it.
func replay(g *graph.Graph) replayResult {
	sc := intersect.NewScratch()
	var r replayResult
	t := time.Now()
	for u := 0; u < g.NumVertices(); u++ {
		au := g.Adj(graph.V(u))
		for _, v := range au {
			c, ops := sc.Count(intersect.MethodHybrid, au, intersect.UpperSlice(g.Adj(v), v))
			r.sumT += int64(c)
			r.ops += int64(ops)
			r.calls++
		}
	}
	r.wallMS = since(t)
	return r
}

// graphLayer records the input properties skew-aware changes depend on.
func graphLayer(o *outcome, g *graph.Graph) {
	n, arcs := g.NumVertices(), g.NumArcs()
	o.set("graph.vertices", float64(n))
	o.set("graph.arcs", float64(arcs))
	o.set("graph.degree_skew", float64(g.MaxDegree())/(float64(arcs)/float64(n)))
}

// engineLayer records the engine's, the RMA substrate's and CLaMPI's
// counters for one run. They are deterministic: every run of the same
// graph and query reports the same values.
func engineLayer(o *outcome, res *lcc.Result) {
	var remote, local int64
	var maxCompute, sumCompute float64
	for _, s := range res.PerRank {
		remote += s.RemoteReads
		local += s.LocalReads + s.DelegatedReads
		maxCompute = math.Max(maxCompute, s.ComputeTime)
		sumCompute += s.ComputeTime
	}
	o.set("lcc.remote_reads", float64(remote))
	o.set("lcc.local_reads", float64(local))
	o.set("lcc.remote_read_frac", res.RemoteReadFraction())
	o.set("lcc.comm_frac", res.CommFraction())
	o.set("lcc.rank_imbalance", maxCompute/(sumCompute/float64(len(res.PerRank))))

	agg := res.AggregateRMA()
	o.set("rma.gets", float64(agg.Gets))
	o.set("rma.local_gets", float64(agg.LocalGets))
	o.set("rma.remote_mb", float64(agg.RemoteBytes)/(1<<20))
	o.set("rma.get_cost_ms", ms(agg.GetCost))
	o.set("rma.flush_wait_ms", ms(agg.FlushWait))

	var hits, misses, inserts, capEv, confEv, rejected, offHits, offMisses int64
	var hitNS, overheadNS float64
	for _, s := range res.PerRank {
		a := s.AdjCache
		hits += a.Hits
		misses += a.Misses
		inserts += a.Inserts
		capEv += a.CapacityEvictions
		confEv += a.ConflictEvictions
		rejected += a.RejectedInserts
		hitNS += a.HitTime
		overheadNS += a.OverheadTime
		offHits += s.OffsetsCache.Hits
		offMisses += s.OffsetsCache.Misses
	}
	o.set("clampi.adj.hits", float64(hits))
	o.set("clampi.adj.misses", float64(misses))
	o.set("clampi.adj.hit_rate", ratio(hits, hits+misses))
	o.set("clampi.adj.inserts", float64(inserts))
	o.set("clampi.adj.capacity_evictions", float64(capEv))
	o.set("clampi.adj.conflict_evictions", float64(confEv))
	o.set("clampi.adj.rejected_inserts", float64(rejected))
	o.set("clampi.adj.hit_ms", ms(hitNS))
	o.set("clampi.adj.overhead_ms", ms(overheadNS))
	o.set("clampi.offsets.hit_rate", ratio(offHits, offHits+offMisses))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
