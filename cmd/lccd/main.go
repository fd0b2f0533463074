// Command lccd is the persistent analytics daemon over the simulated
// engines: it keeps named graph instances loaded (internal/serve) and
// serves supervised LCC/Jaccard queries against them over a local
// HTTP+JSON API. Runs carry deadlines, cancellation unwinds the simulated
// ranks cleanly, a worker panic fails the run but never the process, and
// admission control bounds concurrent runs per instance — overflow queues
// (bounded, priority-ordered) when the instance allows it.
//
// With -state-dir the daemon is durable: every loaded instance persists a
// versioned, checksummed manifest, and a restart — graceful or kill -9 —
// recovers the fleet from the manifests (lazily by default: instances
// come back parked and rebuild their snapshot on first query). With
// -mem-budget the supervisor parks idle instances LRU when total resident
// snapshot bytes overshoot the budget.
//
// Usage:
//
//	lccd -addr 127.0.0.1:8090
//	lccd -state-dir /var/lib/lccd            # durable: manifests + crash recovery
//	lccd -state-dir dir -recover eager       # rebuild all snapshots at boot
//	lccd -mem-budget 2147483648              # park idle instances past 2 GiB
//	lccd -run-cap 16                         # shed runs past 16 in flight fleet-wide
//	lccd -scrub-period 1m                    # background snapshot integrity scrubbing
//	lccd -smoke            # self-contained smoke run: load, query, drain, exit
//	lccd -restart-smoke    # crash-recovery smoke: boot, load, kill -9, restart, verify
//	lccd -chaos-smoke      # seeded chaos campaign: kill/corrupt/storm a real daemon
//
// API (JSON bodies, JSON replies):
//
//	POST /v1/load   {"name":"fb","dataset":"fb-sim","ranks":4,"max_concurrent":2,"queue_depth":8,
//	                 "stall_timeout_ms":60000}
//	POST /v1/run    {"instance":"fb","engine":"lcc","method":"hybrid","caching":true,
//	                 "timeout_ms":5000,"priority":1,"queue_timeout_ms":2000}
//	POST /v1/stop   {"instance":"fb"}
//	GET  /v1/ps
//	GET  /v1/health
//
// Each body has one schema. The load body is a serve.LoadSpec — the same
// record a manifest persists — and the run body embeds lcc.RunSpec, the
// schema lccrun fills from its flags. Both are validated before anything
// is built or admitted: an unknown method, engine, scheme or storage
// name, ranks or workers outside [0, lcc.MaxRanks], or a negative size
// is a 400 "bad-request" that moves no instance counter. With caching on,
// an omitted cache size takes the paper sizing lccrun uses: C_offsets
// 16·⌊2n/5⌋ bytes for an n-vertex graph, C_adj 64 MiB.
//
// Typed serve errors map to statuses, and every error body carries a
// machine-readable "reason" code alongside the message: 429
// busy/queue-overflow or the server-wide run cap (with Retry-After), 404
// unknown instance, 410 exited, 503 loading/unhealthy/memory-brownout,
// 504 deadline, cancellation or queue timeout (the JSON body carries the
// queue wait), 500 isolated panic or a watchdog-detected stall, 413
// oversized request body. A client timeout_ms (or Request-Timeout
// header, in seconds) becomes the run context's deadline, so queue wait
// and execution share one budget. SIGTERM/SIGINT drains in-flight runs
// before exit; manifests survive the drain.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/lcc"
	"repro/internal/sched"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lccd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lccd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8090", "listen address for the HTTP API")
		drain        = fs.Duration("drain", 30*time.Second, "how long a shutdown waits for in-flight runs")
		stateDir     = fs.String("state-dir", "", "directory for instance manifests; enables restart recovery")
		recoverMode  = fs.String("recover", "lazy", "manifest recovery mode: lazy (parked, rebuild on first query) or eager")
		memBudget    = fs.Int64("mem-budget", 0, "total resident snapshot bytes before idle instances are parked LRU (0 = unbounded)")
		runCap       = fs.Int("run-cap", 0, "server-wide cap on supervised runs in flight; past it runs shed with 429 (0 = unbounded)")
		scrubPeriod  = fs.Duration("scrub-period", 0, "background snapshot integrity-scrub period, jittered ±25% (0 = off)")
		scrubSeed    = fs.Uint64("scrub-seed", 1, "seed for the scrub period jitter")
		smoke        = fs.Bool("smoke", false, "start on an ephemeral port, load fb-sim, run one query, drain, exit")
		restartSmoke = fs.Bool("restart-smoke", false, "crash-recovery smoke: boot with a state dir, load, kill -9, restart, verify pinned bits")
		chaosSmoke   = fs.Bool("chaos-smoke", false, "seeded chaos campaign against a real re-exec'd daemon: kill -9, corrupt state, storm, verify bits")
		chaosCycles  = fs.Int("chaos-cycles", 20, "number of chaos campaign cycles")
		chaosSeed    = fs.Uint64("chaos-seed", 1, "seed for the chaos campaign schedule")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *restartSmoke {
		return runRestartSmoke(out)
	}
	if *chaosSmoke {
		return runChaosSmoke(out, *chaosCycles, *chaosSeed)
	}

	srv := newServer()
	if *memBudget > 0 {
		srv.sup.SetMemBudget(*memBudget)
	}
	if *runCap > 0 {
		srv.sup.SetRunCap(*runCap)
	}
	if *scrubPeriod > 0 {
		srv.scrubber = srv.sup.StartScrubber(*scrubPeriod, *scrubSeed)
	}
	if *stateDir != "" {
		ms, err := serve.NewManifestStore(*stateDir)
		if err != nil {
			return fmt.Errorf("state dir: %w", err)
		}
		srv.stateDir = *stateDir
		srv.sup.SetManifestStore(ms)
		eager := false
		switch *recoverMode {
		case "lazy":
		case "eager":
			eager = true
		default:
			return fmt.Errorf("unknown -recover mode %q (want lazy or eager)", *recoverMode)
		}
		rep := srv.sup.Recover(eager)
		for _, me := range rep.Skipped {
			fmt.Fprintf(out, "lccd: skipping manifest: %v\n", me)
		}
		for _, name := range rep.Failed {
			fmt.Fprintf(out, "lccd: recovered instance %q failed to rebuild (see /v1/ps)\n", name)
		}
		if len(rep.Restored) > 0 {
			mode := "parked"
			if eager {
				mode = "ready"
			}
			fmt.Fprintf(out, "lccd: recovered %d instance(s) from %s (%s): %s\n",
				len(rep.Restored), *stateDir, mode, strings.Join(rep.Restored, ", "))
		}
	}
	if *smoke {
		return srv.smoke(out, *drain)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "lccd: serving on http://%s\n", ln.Addr())
	srv.writeAddrFile(ln.Addr().String())
	return srv.serve(ln, out, *drain)
}

// maxBodyBytes bounds request bodies: every API body is a small JSON
// object, so anything past 1 MiB is a client bug or abuse and gets 413
// instead of an unbounded read.
const maxBodyBytes = 1 << 20

// server binds the supervisor to the HTTP surface.
type server struct {
	sup      *serve.Supervisor
	http     *http.Server
	stateDir string
	scrubber *serve.Scrubber
}

func newServer() *server {
	s := &server{sup: serve.NewSupervisor()}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/load", s.handleLoad)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/stop", s.handleStop)
	mux.HandleFunc("GET /v1/ps", s.handlePS)
	mux.HandleFunc("GET /v1/health", s.handleHealth)
	s.http = &http.Server{
		Handler: mux,
		// Slow-client hardening: a peer that trickles headers or a body
		// can no longer pin a connection goroutine forever. Handler
		// execution (long runs) is NOT bounded here — run deadlines belong
		// to the run context, not the socket.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	return s
}

// writeAddrFile records the bound address in the state dir so ops tooling
// (and the restart smoke) can find a daemon that bound an ephemeral port.
// Best-effort: no state dir, no file.
func (s *server) writeAddrFile(addr string) {
	if s.stateDir == "" {
		return
	}
	_ = os.WriteFile(filepath.Join(s.stateDir, "lccd.addr"), []byte(addr+"\n"), 0o644)
}

// serve runs the HTTP server until SIGTERM/SIGINT, then drains: the
// supervisor stops admitting runs, fences the admission queues and waits
// for in-flight ones, then the HTTP server shuts down. Manifests survive
// the drain — a restarted daemon recovers the same fleet.
func (s *server) serve(ln net.Listener, out io.Writer, drain time.Duration) error {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(stop)

	errCh := make(chan error, 1)
	go func() { errCh <- s.http.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case sig := <-stop:
		fmt.Fprintf(out, "lccd: %v, draining (up to %v)\n", sig, drain)
	}
	if s.scrubber != nil {
		s.scrubber.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := s.sup.Shutdown(ctx); err != nil {
		fmt.Fprintf(out, "lccd: drain incomplete: %v\n", err)
	}
	if err := s.http.Shutdown(ctx); err != nil {
		return err
	}
	fmt.Fprintln(out, "lccd: drained, bye")
	return nil
}

// handleLoad serves POST /v1/load: the body is a serve.LoadSpec, the same
// record the manifest persists, validated before any snapshot is built.
func (s *server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var spec serve.LoadSpec
	if err := decodeBody(w, r, &spec); err != nil {
		return
	}
	inst, err := s.sup.Load(spec)
	if err != nil {
		writeServeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, inst.Info())
}

// runRequest is the POST /v1/run body: the query's engine knobs
// (lcc.RunSpec, validated before admission) plus its serving envelope.
// Distribution comes from the instance's snapshot.
type runRequest struct {
	Instance string `json:"instance"`
	lcc.RunSpec
	TimeoutMS      int64 `json:"timeout_ms"`
	Priority       int   `json:"priority"`
	QueueTimeoutMS int64 `json:"queue_timeout_ms"`
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if err := decodeBody(w, r, &req); err != nil {
		return
	}
	q := serve.Query{
		Spec:         &req.RunSpec,
		Priority:     req.Priority,
		QueueTimeout: time.Duration(req.QueueTimeoutMS) * time.Millisecond,
	}
	// Deadline propagation: the client's budget (timeout_ms, or a
	// Request-Timeout header in seconds) becomes the run context's
	// deadline, so time spent waiting in the admission queue and time
	// executing draw from the same budget — a run that queued for most of
	// its deadline doesn't then run for a full deadline more. Query.Timeout
	// is disabled (-1) because the context now carries it; with no client
	// budget the instance default applies as before.
	ctx := r.Context()
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	if timeout == 0 {
		timeout = headerTimeout(r)
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
		q.Timeout = -1
	}
	res, err := s.sup.Run(ctx, req.Instance, q)
	if err != nil {
		writeServeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// headerTimeout parses the Request-Timeout header (seconds, fractions
// allowed) — the header form of the body's timeout_ms.
func headerTimeout(r *http.Request) time.Duration {
	h := r.Header.Get("Request-Timeout")
	if h == "" {
		return 0
	}
	secs, err := strconv.ParseFloat(h, 64)
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs * float64(time.Second))
}

func (s *server) handleStop(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Instance string `json:"instance"`
	}
	if err := decodeBody(w, r, &req); err != nil {
		return
	}
	if err := s.sup.Stop(req.Instance); err != nil {
		writeServeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"instance": req.Instance, "state": "exited"})
}

// psReply is the GET /v1/ps shape: the fleet-level server view (state
// counts, global admission, scrub stats) plus the per-instance list.
type psReply struct {
	Server    serve.ServerInfo     `json:"server"`
	Instances []serve.InstanceInfo `json:"instances"`
}

func (s *server) handlePS(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, psReply{Server: s.sup.ServerInfo(), Instances: s.sup.List()})
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	status := http.StatusOK
	if !s.sup.Healthy() {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"healthy":   status == http.StatusOK,
		"server":    s.sup.ServerInfo(),
		"instances": s.sup.List(),
	})
}

// decodeBody reads one bounded JSON body; on failure it writes the error
// reply (413 when the MaxBytesReader bound tripped, 400 otherwise) and
// returns non-nil so the handler just returns.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "body-too-large", err)
			return err
		}
		writeError(w, http.StatusBadRequest, "bad-request", err)
		return err
	}
	return nil
}

// statusFor maps typed serve/sched errors to an HTTP status and a
// machine-readable reason code. Ordering is contractual where errors
// wrap each other: a *StallError unwinds through the cancellation plane,
// so it matches ErrRunCanceled too and must be classified first; the
// server-wide ErrServerBusy is checked before the per-instance ErrBusy
// so a fleet-cap shed is distinguishable from one full queue.
func statusFor(err error) (int, string) {
	var pe *sched.PanicError
	switch {
	case errors.Is(err, serve.ErrStalled):
		return http.StatusInternalServerError, "stalled"
	case errors.Is(err, serve.ErrServerBusy):
		return http.StatusTooManyRequests, "run-cap"
	case errors.Is(err, serve.ErrBrownout):
		return http.StatusServiceUnavailable, "memory-brownout"
	case errors.Is(err, serve.ErrBusy):
		return http.StatusTooManyRequests, "instance-busy"
	case errors.Is(err, serve.ErrUnknownInstance):
		return http.StatusNotFound, "unknown-instance"
	case errors.Is(err, serve.ErrInstanceExited):
		return http.StatusGone, "instance-exited"
	case errors.Is(err, serve.ErrNotReady):
		return http.StatusServiceUnavailable, "not-ready"
	case errors.Is(err, serve.ErrUnhealthy):
		return http.StatusServiceUnavailable, "unhealthy"
	case errors.Is(err, serve.ErrAlreadyRunning):
		return http.StatusConflict, "already-running"
	case errors.Is(err, serve.ErrQueueTimeout):
		return http.StatusGatewayTimeout, "queue-timeout"
	case errors.Is(err, sched.ErrRunCanceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "canceled"
	case errors.As(err, &pe):
		return http.StatusInternalServerError, "panic"
	default:
		return http.StatusBadRequest, "bad-request"
	}
}

// errorBody is the JSON error reply. Reason is always set — every
// rejection is machine-classifiable without parsing the message.
// QueueWaitMS reports how long a queue-timed-out run waited before the
// 504; the shed fields carry the numbers behind a 429/503 shed decision.
type errorBody struct {
	Error       string `json:"error"`
	Reason      string `json:"reason"`
	QueueWaitMS int64  `json:"queue_wait_ms,omitempty"`

	ActiveRuns    int   `json:"active_runs,omitempty"`
	RunCap        int   `json:"run_cap,omitempty"`
	ResidentBytes int64 `json:"resident_bytes,omitempty"`
	BudgetBytes   int64 `json:"budget_bytes,omitempty"`
}

// writeServeError maps a typed serve error onto its status and protocol
// extras: 429 responses carry Retry-After (busy is transient by
// definition — the queue or a slot frees as runs drain), a queue
// timeout's 504 body records the measured wait, and a shed decision's
// body carries the admission numbers that justified it.
func writeServeError(w http.ResponseWriter, err error) {
	status, reason := statusFor(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	body := errorBody{Error: err.Error(), Reason: reason}
	var qe *serve.QueueTimeoutError
	if errors.As(err, &qe) {
		body.QueueWaitMS = qe.Wait.Milliseconds()
	}
	var she *serve.ShedError
	if errors.As(err, &she) {
		body.ActiveRuns = she.ActiveRuns
		body.RunCap = she.RunCap
		body.ResidentBytes = she.ResidentBytes
		body.BudgetBytes = she.BudgetBytes
	}
	writeJSON(w, status, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, reason string, err error) {
	writeJSON(w, status, errorBody{Error: err.Error(), Reason: reason})
}

// smoke exercises the full service loop in one process — the make
// serve-smoke / CI step: serve on an ephemeral port, load a graph over
// HTTP, run one query, list instances, then drain and exit. Any failure
// is fatal.
func (s *server) smoke(out io.Writer, drain time.Duration) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = s.http.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	post := func(path string, body string, want int) (map[string]any, error) {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			return nil, err
		}
		if resp.StatusCode != want {
			return m, fmt.Errorf("%s: status %d (want %d): %v", path, resp.StatusCode, want, m)
		}
		return m, nil
	}

	if _, err := post("/v1/load", `{"name":"fb","dataset":"fb-sim","ranks":4,"max_concurrent":2,"queue_depth":4}`, http.StatusOK); err != nil {
		return err
	}
	res, err := post("/v1/run", `{"instance":"fb","method":"hybrid","timeout_ms":60000}`, http.StatusOK)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "lccd smoke: run ok: triangles=%v sim_time_ns=%v\n", res["triangles"], res["sim_time_ns"])
	if res["triangles"] == nil {
		return errors.New("smoke run returned no triangle count")
	}
	resp, err := http.Get(base + "/v1/health")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("health: status %d", resp.StatusCode)
	}
	// Body-bound hardening: an oversized request must bounce with a typed
	// 413, not be read without limit.
	huge := `{"instance":"fb","method":"` + strings.Repeat("x", maxBodyBytes+1) + `"}`
	if m, err := post("/v1/run", huge, http.StatusRequestEntityTooLarge); err != nil {
		return err
	} else if m["reason"] != "body-too-large" {
		return fmt.Errorf("oversized body: reason = %v, want body-too-large", m["reason"])
	}
	if _, err := post("/v1/stop", `{"instance":"fb"}`, http.StatusOK); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := s.sup.Shutdown(ctx); err != nil {
		return err
	}
	if err := s.http.Shutdown(ctx); err != nil {
		return err
	}
	fmt.Fprintln(out, "lccd smoke: ok")
	return nil
}

// smokeResult is the typed decode of a /v1/run reply: score_bits must
// round-trip as a uint64 (a float64 decode would lose the low bits of the
// checksum and defeat the bit-identity assertion).
type smokeResult struct {
	SimTime   float64 `json:"sim_time_ns"`
	Triangles int64   `json:"triangles"`
	SumT      int64   `json:"sum_t"`
	ScoreBits uint64  `json:"score_bits"`
}

// psView is the typed client-side decode of GET /v1/ps, shared by the
// restart smoke and the chaos harness.
type psView struct {
	Server struct {
		States     map[string]int   `json:"states"`
		ActiveRuns int              `json:"active_runs"`
		Scrub      serve.ScrubStats `json:"scrub"`
	} `json:"server"`
	Instances []struct {
		Name     string         `json:"name"`
		State    string         `json:"state"`
		Counters serve.Counters `json:"counters"`
	} `json:"instances"`
}

// runRestartSmoke is the crash-recovery lane (make serve-restart-smoke):
// it re-execs this binary as a real daemon with a state dir, loads fb-sim
// and records a golden query, SIGKILLs the daemon — no drain, no goodbye,
// the crash-stop case — restarts it, and asserts /v1/ps still knows the
// instance (recovered parked from its manifest) and that the same query
// returns bit-identical SimTime/Triangles/ScoreBits through the
// transparent reload.
func runRestartSmoke(out io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "lccd-restart-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	addrFile := filepath.Join(dir, "lccd.addr")

	boot := func() (*exec.Cmd, string, error) {
		_ = os.Remove(addrFile)
		cmd := exec.Command(exe, "-addr", "127.0.0.1:0", "-state-dir", dir)
		cmd.Stdout, cmd.Stderr = out, out
		if err := cmd.Start(); err != nil {
			return nil, "", err
		}
		for i := 0; i < 200; i++ {
			if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
				return cmd, "http://" + strings.TrimSpace(string(raw)), nil
			}
			time.Sleep(50 * time.Millisecond)
		}
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, "", errors.New("restart smoke: daemon did not write its address file")
	}

	post := func(base, path, body string) (*http.Response, error) {
		return http.Post(base+path, "application/json", strings.NewReader(body))
	}
	runQuery := func(base string) (*smokeResult, error) {
		resp, err := post(base, "/v1/run", `{"instance":"fb","method":"hybrid","timeout_ms":120000}`)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			return nil, fmt.Errorf("run: status %d: %s", resp.StatusCode, raw)
		}
		var res smokeResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			return nil, err
		}
		return &res, nil
	}

	// Boot 1: load the instance and take the pre-crash golden reading.
	d1, base1, err := boot()
	if err != nil {
		return err
	}
	resp, err := post(base1, "/v1/load", `{"name":"fb","dataset":"fb-sim","ranks":4,"max_concurrent":2,"queue_depth":4}`)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("load: status %d", resp.StatusCode)
	}
	before, err := runQuery(base1)
	if err != nil {
		return err
	}
	if before.Triangles == 0 {
		return errors.New("restart smoke: pre-crash run returned no triangles")
	}
	fmt.Fprintf(out, "lccd restart-smoke: pre-crash: triangles=%d score_bits=%#x\n", before.Triangles, before.ScoreBits)

	// Crash-stop: SIGKILL, no drain. The manifest on disk is now the only
	// record the instance ever existed.
	if err := d1.Process.Kill(); err != nil {
		return err
	}
	_ = d1.Wait()

	// Boot 2: recover from the state dir and verify the fleet and the bits.
	d2, base2, err := boot()
	if err != nil {
		return err
	}
	defer func() {
		_ = d2.Process.Signal(syscall.SIGTERM)
		_ = d2.Wait()
	}()
	psResp, err := http.Get(base2 + "/v1/ps")
	if err != nil {
		return err
	}
	var ps psView
	err = json.NewDecoder(psResp.Body).Decode(&ps)
	psResp.Body.Close()
	if err != nil {
		return err
	}
	found := ""
	for _, info := range ps.Instances {
		if info.Name == "fb" {
			found = info.State
		}
	}
	if found == "" {
		return fmt.Errorf("restart smoke: ps after restart does not list instance fb: %+v", ps.Instances)
	}
	// The server block must agree: lazy recovery brings the fleet back
	// parked, and the state counts are the ops-visible proof of it.
	if got := ps.Server.States["parked"]; got != 1 {
		return fmt.Errorf("restart smoke: server.states[parked] = %d, want 1 (states %v)", got, ps.Server.States)
	}
	fmt.Fprintf(out, "lccd restart-smoke: recovered: fb state=%s server states=%v\n", found, ps.Server.States)

	after, err := runQuery(base2)
	if err != nil {
		return err
	}
	if *after != *before {
		return fmt.Errorf("restart smoke: results drifted across crash recovery:\n  before %+v\n  after  %+v", *before, *after)
	}
	fmt.Fprintf(out, "lccd restart-smoke: post-restart bits identical: triangles=%d score_bits=%#x\n", after.Triangles, after.ScoreBits)
	fmt.Fprintln(out, "lccd restart-smoke: ok")
	return nil
}
