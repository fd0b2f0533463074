package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/gen"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/part"
	"repro/internal/serve"
)

// The serve-http workload: a real lccd over loopback HTTP, fb-sim loaded
// with one run slot and an admission queue, and an open loop of seeded
// arrivals at two fixed loads.
const (
	serveDataset = "fb-sim"
	serveRanks   = 4
	// The low load sends single requests at 2.5 per second: each one finds
	// the run slot free, so its latency is an unloaded request's. The high
	// load sends bursts of three requests at once, twice a second (6
	// requests per second). One runs while the others wait, in lccd's
	// admission queue or, past nproc connections, for a connection. A
	// burst's latencies are then about one, two and three run times: the
	// median lies inside the middle group and the tail inside the last,
	// and both move with the run time and the queueing, not with how an
	// arrival process happened to bunch requests in one seed (Poisson
	// arrivals at this load made the tail spread by a third of its median
	// from seed to seed).
	rateLow   = 2.5
	burstLow  = 1
	rateHigh  = 2.0
	burstHigh = 3
	// burstJitter is the share of its slot (1/rate) within which a burst
	// falls; consecutive bursts are at least 1-burstJitter slots apart
	// (400 ms at the high load). A burst drains in about 270 ms on a
	// 2-core x86 host, where one run takes about 85 ms, so the next burst
	// finds the queue empty unless the host slows by half.
	burstJitter = 0.2
	// serveSLOms is the latency limit slo_ok_frac counts against.
	serveSLOms = 500
	// maxLagFrac bounds how late the generator may send a request, as a
	// share of the mean gap between requests; a later send makes the run
	// invalid rather than slow.
	maxLagFrac = 0.5
	// requestTimeout is the run deadline each request carries; the
	// client gives up a little later.
	requestTimeout = 10 * time.Second
)

// serveQuery is the /v1/run body every request sends: the paper's cached
// configuration (both caches, degree scores) on one worker. The seed picks
// C_adj's capacity from [472, 480) KiB per rank, just below the ~482 KiB
// at which fb-sim's remote working set fits: the cache runs full, with
// about 89% hits, 0.4k-2.6k capacity evictions per run, and a modeled
// time that moves with the seed (from 25.0 to 23.8 ms).
type serveQuery struct {
	Instance     string `json:"instance"`
	Method       string `json:"method"`
	Workers      int    `json:"workers"`
	Caching      bool   `json:"caching"`
	CacheOffsets int    `json:"cache_offsets_bytes"`
	CacheAdj     int    `json:"cache_adj_bytes"`
	DegreeScores bool   `json:"degree_scores"`
	TimeoutMS    int64  `json:"timeout_ms"`
}

func queryFor(seed uint64) serveQuery {
	rng := rand.New(rand.NewPCG(seed, 0xADC0DE))
	return serveQuery{
		Instance: "fb", Method: "hybrid", Workers: 1, Caching: true,
		CacheOffsets: 1 << 20,
		CacheAdj:     (472 + rng.IntN(8)) << 10,
		DegreeScores: true,
		TimeoutMS:    requestTimeout.Milliseconds(),
	}
}

// options is the engine configuration lccd builds from the query.
func (q serveQuery) options() lcc.Options {
	return lcc.Options{Workers: q.Workers, Method: intersect.MethodHybrid, DoubleBuffer: true,
		Caching: q.Caching, OffsetsCacheBytes: q.CacheOffsets, AdjCacheBytes: q.CacheAdj,
		DegreeScores: q.DegreeScores}
}

// schedule returns the due times of one open-loop phase, as offsets from
// its start: rate bursts per second over d, each of size requests due at
// the same time. Burst i falls at a uniform time in the first burstJitter
// of its slot [i, i+1)/rate, drawn from the seed and the phase's stream. A
// seed always replays the same load, and every seed offers the same number
// of requests.
func schedule(seed, stream uint64, rate float64, size int, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, stream))
	n := int(math.Round(rate * d.Seconds()))
	if n == 0 {
		return nil
	}
	slot := d / time.Duration(n)
	due := make([]time.Duration, 0, n*size)
	for i := range n {
		at := time.Duration(i)*slot + time.Duration(rng.Float64()*burstJitter*float64(slot))
		for range size {
			due = append(due, at)
		}
	}
	return due
}

// runReply is the part of a /v1/run reply the benchmark checks and times.
type runReply struct {
	SimTime   float64       `json:"sim_time_ns"`
	Triangles int64         `json:"triangles"`
	ScoreBits uint64        `json:"score_bits"`
	Wall      time.Duration `json:"wall_ns"`
	QueueWait time.Duration `json:"queue_wait_ns"`
}

// serveExpect is what every reply must carry: triangles and score bits
// from the single-node oracle, and the modeled time of the same query run
// in this process (the engine is deterministic, so lccd must match it bit
// for bit).
type serveExpect struct {
	triangles int64
	scoreBits uint64
	sim       float64
}

func (e serveExpect) check(r runReply) string {
	switch {
	case r.Triangles != e.triangles:
		return fmt.Sprintf("triangles %d, oracle %d", r.Triangles, e.triangles)
	case r.ScoreBits != e.scoreBits:
		return fmt.Sprintf("score_bits %#x, oracle %#x", r.ScoreBits, e.scoreBits)
	case math.Float64bits(r.SimTime) != math.Float64bits(e.sim):
		return fmt.Sprintf("sim_time_ns %v, in-process run %v", r.SimTime, e.sim)
	}
	return ""
}

// serveBlocks is how many daemons a serve-http run boots. Each boot is one
// set-up sample, and each daemon then serves one block of each rate. On a
// shared VM the speed one process gets differs from the next process's by
// up to ±20%, so the figures pool the blocks of several daemons.
const serveBlocks = 2 * setupReps

// phase is one offered load and the requests sent at it.
type phase struct {
	name string
	rate float64 // bursts per second
	size int     // requests per burst
	reqs []request
}

// runServe runs serve-http: the oracle and the in-process replica first,
// then serveBlocks times: boot a daemon (set-up is exec to the first
// correct reply), serve a block of each rate (in alternating order), read
// its counters and peak RSS, and stop it.
func runServe(cfg config, o *outcome, rec *Recorder) error {
	if cfg.lccd == "" {
		return errors.New("serve-http needs -lccd")
	}
	q := queryFor(cfg.seed)
	body, err := json.Marshal(q)
	if err != nil {
		return err
	}
	exp, err := serveReplica(q, o, rec)
	if err != nil {
		return err
	}

	nproc := runtime.NumCPU()
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc},
		Timeout:   requestTimeout + 5*time.Second,
	}
	defer client.CloseIdleConnections()

	var d *daemon
	defer func() { d.stop() }()
	phases := []*phase{{name: "low", rate: rateLow, size: burstLow}, {name: "high", rate: rateHigh, size: burstHigh}}
	block := time.Duration(cfg.seconds / float64(2*serveBlocks) * float64(time.Second))
	var setupMS, bootMS, loadMS, rssMB []float64
	var ps serve.Counters
	sent := 0
	for b := 1; b <= serveBlocks; b++ {
		var bt bootTimes
		d, bt, err = bootServe(cfg.lccd, client, body, exp, o, rec, b)
		if err != nil {
			return err
		}
		setupMS, bootMS, loadMS = append(setupMS, bt.setupMS), append(bootMS, bt.bootMS), append(loadMS, bt.loadMS)
		for i := range phases {
			pi := (i + b) % 2 // alternate which rate goes first
			ph := phases[pi]
			due := schedule(cfg.seed, uint64(2*b+pi), ph.rate, ph.size, block)
			// Request ids follow the set-up ids 1..serveBlocks.
			reqs := openLoop(client, d.base, body, due, serveBlocks+sent, rec)
			sent += len(reqs)
			ph.reqs = append(ph.reqs, reqs...)
		}
		c, err := d.ps(client)
		if err != nil {
			return err
		}
		ps.Served += c.Served
		ps.Rejected += c.Rejected
		ps.TimedOut += c.TimedOut + c.Canceled
		ps.Failed += c.Failed + c.Panicked + c.Stalled
		rssMB = append(rssMB, peakRSSMiB(d.cmd.Process.Pid))
		d.stop()
	}

	var okWall, tracedLat, plainLat []float64
	ok, inSLO := 0, 0
	for _, ph := range phases {
		var lat, wall, queue, conn, resid []float64
		lagMax := 0.0
		for _, r := range ph.reqs {
			o.attempted++
			lagMax = math.Max(lagMax, r.lagMS)
			if r.err != nil {
				if o.failed == 0 {
					o.notef("serve-http: first failed request %d: %v", r.id, r.err)
				}
				o.fail("")
				continue
			}
			if msg := exp.check(r.reply); msg != "" {
				o.fail(fmt.Sprintf("request %d: %s", r.id, msg))
				continue
			}
			ok++
			if r.latMS <= serveSLOms {
				inSLO++
			}
			lat = append(lat, r.latMS)
			wall = append(wall, ms(float64(r.reply.Wall)))
			queue = append(queue, ms(float64(r.reply.QueueWait)))
			if r.traced {
				tracedLat = append(tracedLat, r.latMS)
				conn = append(conn, r.connWaitMS)
				resid = append(resid, r.residualMS)
			} else {
				plainLat = append(plainLat, r.latMS)
			}
		}
		okWall = append(okWall, wall...)
		gap := 1000 / (ph.rate * float64(ph.size))
		if lagMax > maxLagFrac*gap {
			return fmt.Errorf("%w: %s load: generator lag %.1f ms exceeds %.0f%% of the %.0f ms mean gap",
				errInvalid, ph.name, lagMax, 100*maxLagFrac, gap)
		}
		qLat, tailLat, enough := tail(lat)
		o.set("lat_ms_p50."+ph.name, median(lat))
		o.set("lat_ms_tail."+ph.name, tailLat)
		o.notef("serve-http %s (%.1f rps in bursts of %d): %d sent, %d ok; lat_ms_tail is p%d of %d (enough samples: %v)",
			ph.name, ph.rate*float64(ph.size), ph.size, len(ph.reqs), len(lat), qLat, len(lat), enough)
		o.set("serve.run_ms_p50."+ph.name, median(wall))
		o.set("serve.queue_wait_ms_p50."+ph.name, median(queue))
		_, qTail, _ := tail(queue)
		o.set("serve.queue_wait_ms_tail."+ph.name, qTail)
		o.set("loadgen.conn_wait_ms_p50."+ph.name, median(conn))
		_, cTail, _ := tail(conn)
		o.set("loadgen.conn_wait_ms_tail."+ph.name, cTail)
		o.set("http.residual_ms_p50."+ph.name, median(resid))
		_, rTail, _ := tail(resid)
		o.set("http.residual_ms_tail."+ph.name, rTail)
		o.set("loadgen.lag_ms_max."+ph.name, lagMax)
	}

	o.set("setup_s", median(setupMS)/1000)
	o.set("run_ms_p50", median(okWall))
	qRun, runTail, enough := tail(okWall)
	o.set("run_ms_tail", runTail)
	o.notef("serve-http: run_ms_tail is p%d of %d server-reported runs (enough samples: %v); setup_s and peak_rss_mb are medians over %d daemons",
		qRun, len(okWall), enough, serveBlocks)
	o.set("sim_ms", ms(exp.sim))
	o.set("peak_rss_mb", median(rssMB))
	o.set("slo_ok_frac", float64(inSLO)/float64(max(sent, 1)))

	o.set("serve.load_ms", median(loadMS))
	o.set("lccd.boot_ms", median(bootMS))
	o.set("lcc.run_ms", median(okWall))
	o.set("serve.served", float64(ps.Served))
	o.set("serve.rejected", float64(ps.Rejected))
	o.set("serve.timed_out", float64(ps.TimedOut))
	o.set("serve.failed", float64(ps.Failed))
	o.set("loadgen.sent", float64(sent))
	o.set("loadgen.ok", float64(ok))
	o.set("loadgen.failed", float64(sent-ok))
	if rec != nil {
		o.set("trace.overhead_frac", median(tracedLat)/median(plainLat)-1)
	}
	return nil
}

// bootTimes are one boot's set-up time (exec to the checked first reply),
// boot time (exec to the address line) and load time, in milliseconds.
type bootTimes struct{ setupMS, bootMS, loadMS float64 }

// bootServe execs a daemon, loads fb-sim and runs the query once, checking
// the reply.
func bootServe(lccd string, client *http.Client, body []byte, exp serveExpect, o *outcome, rec *Recorder, i int) (*daemon, bootTimes, error) {
	var bt bootTimes
	root, end := rec.Begin("setup", 0, i)
	defer end()
	t0 := time.Now()
	d, err := startDaemon(lccd)
	if err != nil {
		return nil, bt, err
	}
	t1 := time.Now()
	load := fmt.Sprintf(`{"name":"fb","dataset":%q,"ranks":%d,"max_concurrent":1,"queue_depth":%d}`,
		serveDataset, serveRanks, runtime.NumCPU())
	if _, err := post(client, d.base+"/v1/load", []byte(load), nil); err != nil {
		d.stop()
		return nil, bt, fmt.Errorf("load: %w", err)
	}
	t2 := time.Now()
	reply, err := post(client, d.base+"/v1/run", body, nil)
	t3 := time.Now()
	o.attempted++
	if err != nil {
		o.fail("")
		d.stop()
		return nil, bt, fmt.Errorf("first run: %w", err)
	}
	if msg := exp.check(reply); msg != "" {
		o.fail("first run: " + msg)
	}
	rec.Add("lccd.boot", root, i, t0, t1)
	rec.Add("serve.load", root, i, t1, t2)
	rec.Add("first_run", root, i, t2, t3)
	bt = bootTimes{ms(float64(t3.Sub(t0))), ms(float64(t1.Sub(t0))), ms(float64(t2.Sub(t1)))}
	return d, bt, nil
}

// serveReplica computes the expected reply in this process: the
// single-node oracle for triangles and scores, and the served query on an
// identical snapshot for the modeled time. A traced run also records the
// per-layer counters of that query (they are deterministic, so they are
// the counters of every run lccd serves) and its Workers, caching-off and
// kernel-replay variants.
func serveReplica(q serveQuery, o *outcome, rec *Recorder) (serveExpect, error) {
	ctx := context.Background()
	_, end := rec.Begin("replica.gen", 0, 0)
	t0 := time.Now()
	g, err := gen.Load(serveDataset)
	genMS := since(t0)
	end()
	if err != nil {
		return serveExpect{}, err
	}
	_, end = rec.Begin("oracle", 0, 0)
	or := newOracle(g)
	end()

	_, end = rec.Begin("replica.snapshot", 0, 0)
	t0 = time.Now()
	snap, err := lcc.NewSnapshot(g, serveRanks, part.Block, 0)
	buildMS := since(t0)
	end()
	if err != nil {
		return serveExpect{}, err
	}
	// run executes one variant and checks it; want is the SimTime the
	// variant must reproduce bit for bit (0 when it models another cost).
	run := func(name string, opt lcc.Options, want float64) (*lcc.Result, float64, error) {
		_, end := rec.Begin(name, 0, 0)
		defer end()
		t := time.Now()
		res, err := snap.RunCtx(ctx, opt)
		wall := since(t)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		if msg := or.check(res); msg != "" {
			return nil, 0, fmt.Errorf("%s: %s", name, msg)
		}
		if want != 0 && math.Float64bits(res.SimTime) != math.Float64bits(want) {
			return nil, 0, fmt.Errorf("%s: sim time %v, first run %v", name, res.SimTime, want)
		}
		return res, wall, nil
	}
	opt := q.options()
	res, firstMS, err := run("replica.run", opt, 0)
	if err != nil {
		return serveExpect{}, err
	}
	exp := serveExpect{triangles: or.triangles, scoreBits: serve.ScoreBits(or.lcc), sim: res.SimTime}
	if rec == nil {
		return exp, nil
	}

	o.set("gen.generate_ms", genMS)
	o.set("gen.prepare_ms", 0) // registry datasets are prepared inside gen.Load
	graphLayer(o, g)
	o.set("snapshot.build_ms", buildMS)
	o.set("snapshot.local_bytes", float64(snap.LocalBytes()))
	engineLayer(o, res)
	o.set("lcc.first_run_ms", firstMS)

	_, w1MS, err := run("replica.run_w1", opt, res.SimTime)
	if err != nil {
		return serveExpect{}, err
	}
	wn := opt
	wn.Workers = runtime.GOMAXPROCS(0)
	_, wnMS, err := run("replica.run_wn", wn, res.SimTime)
	if err != nil {
		return serveExpect{}, err
	}
	off := opt
	off.Caching = false
	_, offMS, err := run("replica.nocache_w1", off, 0)
	if err != nil {
		return serveExpect{}, err
	}
	o.set("sched.run_ms_w1", w1MS)
	o.set("sched.speedup", w1MS/wnMS)
	o.set("clampi.host_ms", w1MS-offMS)

	_, end = rec.Begin("intersect.replay", 0, 0)
	rp := replay(g)
	end()
	if rp.sumT != or.sumT {
		return serveExpect{}, fmt.Errorf("intersect replay: sum %d, oracle sum_t %d", rp.sumT, or.sumT)
	}
	o.set("intersect.replay_ms", rp.wallMS)
	o.set("intersect.calls", float64(rp.calls))
	o.set("intersect.ops", float64(rp.ops))
	o.set("intersect.share", rp.wallMS/w1MS)
	return exp, nil
}

// request is one open-loop request as the generator saw it.
type request struct {
	id         int
	traced     bool
	lagMS      float64 // send time minus due time
	latMS      float64 // reply read minus due time
	connWaitMS float64 // traced only: waiting for a connection
	residualMS float64 // traced only: latency minus conn wait, queue wait and run wall
	reply      runReply
	err        error
}

// openLoop sends one request per due time (offsets from now) whatever
// the state of earlier ones, and returns when every reply is in. Request
// ids continue from idBase. With a recorder, every other request is
// traced: its span covers due time to reply, with the connection wait and
// the server-reported queue wait and run wall as children.
func openLoop(client *http.Client, base string, body []byte, due []time.Duration, idBase int, rec *Recorder) []request {
	reqs := make([]request, len(due))
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range due {
		at := start.Add(off)
		time.Sleep(time.Until(at))
		r := &reqs[i]
		r.id = idBase + i + 1
		r.traced = rec != nil && r.id%2 == 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(client, base, body, at, r, rec)
		}()
	}
	wg.Wait()
	return reqs
}

// send issues one request due at the given time and fills in r.
func send(client *http.Client, base string, body []byte, due time.Time, r *request, rec *Recorder) {
	var getConn, gotConn, firstByte time.Time
	var ct *httptrace.ClientTrace
	if r.traced {
		ct = &httptrace.ClientTrace{
			GetConn:              func(string) { getConn = time.Now() },
			GotConn:              func(httptrace.GotConnInfo) { gotConn = time.Now() },
			GotFirstResponseByte: func() { firstByte = time.Now() },
		}
	}
	sent := time.Now()
	r.lagMS = ms(float64(sent.Sub(due)))
	r.reply, r.err = post(client, base+"/v1/run", body, ct)
	done := time.Now()
	r.latMS = ms(float64(done.Sub(due)))
	if !r.traced || r.err != nil {
		return
	}
	r.connWaitMS = ms(float64(gotConn.Sub(getConn)))
	runStart := firstByte.Add(-r.reply.Wall)
	kids := []struct {
		name       string
		start, end time.Time
	}{
		{"conn_wait", getConn, gotConn},
		{"queue_wait", runStart.Add(-r.reply.QueueWait), runStart},
		{"run_wall", runStart, firstByte},
	}
	root := rec.Add("request", 0, r.id, due, done)
	for _, k := range kids {
		rec.Add(k.name, root, r.id, k.start, k.end)
	}
	r.residualMS = ms(float64(selfTimes(rec.Family(root))[root]))
}

// post sends one JSON body and decodes a 200 reply; any other status is
// an error naming it and the body's reason.
func post(client *http.Client, url string, body []byte, ct *httptrace.ClientTrace) (runReply, error) {
	ctx := context.Background()
	if ct != nil {
		ctx = httptrace.WithClientTrace(ctx, ct)
	}
	var reply runReply
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return reply, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &reply); err != nil {
		return reply, fmt.Errorf("decode reply: %w", err)
	}
	return reply, nil
}

// daemon is one lccd process serving on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startDaemon execs lccd on an ephemeral loopback port and returns once
// it prints the address it serves on. The graph disk cache is off, so
// every boot generates its dataset.
func startDaemon(path string) (*daemon, error) {
	cmd := exec.Command(path, "-addr", "127.0.0.1:0", "-drain", "5s")
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, gen.CacheDirEnv+"=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	addr := make(chan string, 1)
	cmd.Stdout = &addrWatcher{found: addr}
	cmd.Stderr = os.Stderr
	dieWithParent(cmd)
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start lccd: %w", err)
	}
	d := &daemon{cmd: cmd}
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("lccd did not report its address within 30s")
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain takes too long. Safe on a nil daemon.
func (d *daemon) stop() {
	if d == nil || d.cmd == nil {
		return
	}
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // the exit status of a stopped daemon is not used
		close(done)
	}()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	d.cmd = nil
}

func (d *daemon) ps(client *http.Client) (serve.Counters, error) {
	var view struct {
		Instances []struct {
			Name     string         `json:"name"`
			Counters serve.Counters `json:"counters"`
		} `json:"instances"`
	}
	resp, err := client.Get(d.base + "/v1/ps")
	if err != nil {
		return serve.Counters{}, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return serve.Counters{}, fmt.Errorf("decode /v1/ps: %w", err)
	}
	for _, in := range view.Instances {
		if in.Name == "fb" {
			return in.Counters, nil
		}
	}
	return serve.Counters{}, errors.New("/v1/ps does not list instance fb")
}

// addrWatcher is lccd's stdout: it passes the address from the
// "serving on http://ADDR" line to found, once, and discards the rest.
type addrWatcher struct {
	buf   []byte
	found chan<- string
	done  bool
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	if w.done {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if _, addr, ok := strings.Cut(line, "serving on http://"); ok {
			w.found <- strings.TrimSpace(addr)
			w.done, w.buf = true, nil
			return len(p), nil
		}
	}
}
