package rma

// The charge tape — the canonical per-rank charge sequence.
//
// Every simulated cost a rank incurs is a charge named by a (kind, bytes)
// descriptor: modeled compute, local reads, one-sided gets, CLaMPI hit,
// miss and management work, and fault-plane recovery. A rank's charges
// form one canonical sequence in program order, and each folds into the
// rank's clock at its canonical point — the same float expressions,
// counter updates and noise draws, in the same order, whatever the host
// schedule. Host-side freedoms (the lookahead-k fetch pipeline, inline
// cache hits that never materialize a request, caller-owned requests,
// any worker count) are legal exactly because they leave this sequence
// untouched. A ChargeObserver sees every charge at its fold, and the
// charge-sequence pins (tape_equiv_test.go at the repo root) hash each
// rank's observed sequence per golden configuration, so any drift fails
// op-exactly. DESIGN.md §6 states the contract.

// ChargeKind identifies the cost expression a charge folds. The kinds
// mirror the charge sites of the simulated machine, not Go call sites: one
// kind per distinct (cost formula, counter set) pair.
type ChargeKind uint8

const (
	// ChargeOps is modeled computation: ops × κ, counted as ComputeTime.
	ChargeOps ChargeKind = iota
	// ChargeLocalRead is a local memory read charged via LocalCost(bytes)
	// and counted as ComputeTime (the engines' local adjacency reads).
	ChargeLocalRead
	// ChargeNS is a raw modeled duration in ns, counted as ComputeTime
	// (AdvanceBy's generic form); observers see the value as ns, with
	// bytes 0.
	ChargeNS
	// ChargeGetLocal is a one-sided read served from the rank's own
	// region: LocalCost(bytes), LocalGets/LocalBytes counters, and the
	// request's completion stamp.
	ChargeGetLocal
	// ChargeGetRemote is a one-sided remote read: no clock advance at
	// issue, but the in-flight duration α+s·β is perturbed and the
	// request's completion time and the Gets/RemoteBytes/GetCost counters
	// are established at the issue point of the canonical order.
	ChargeGetRemote
	// ChargeCacheHit is a CLaMPI hit served from the cache: HitCost(bytes).
	ChargeCacheHit
	// ChargeCacheMiss is CLaMPI's per-miss bookkeeping overhead:
	// CacheMissOverhead, independent of size.
	ChargeCacheMiss
	// ChargeCacheManage is CLaMPI management work proportional to a byte
	// count at local-memory speed — storing a fetched entry, growing the
	// buffer — charged as LocalCost(bytes) with no counter side effects.
	ChargeCacheManage
	// ChargeRetryBackoff is the deterministic jittered backoff sleep
	// before retrying a failed one-sided operation (internal/fault). All
	// fault-plane kinds fold as raw clock advances (Clock.AdvanceRaw):
	// recovery is blocking, not work, so it is neither stretched by noise
	// nor consumes noise-RNG draws — which keeps the fault-free charge
	// sequence, draw for draw, embedded in the faulted one.
	ChargeRetryBackoff
	// ChargeTimeout is time lost waiting on an attempt that did not
	// complete within budget: the detection delay of a failed attempt, or
	// an absorbed latency spike on the successful one.
	ChargeTimeout
	// ChargeRetransmit is the wasted wire time of a failed attempt,
	// re-charged at the unperturbed remote cost of the operation's bytes;
	// it also counts one retry in the rank's counters.
	ChargeRetransmit
	// ChargeStall is a rank stall window (OS jitter, GC, a wedged
	// progress engine) the fault schedule opens between operations.
	ChargeStall
	// ChargeCrashRestart is the modeled restart delay of a recovered
	// crash-stop (the rank rebooting); it also counts one crash in the
	// rank's counters.
	ChargeCrashRestart
	// ChargeCrashRedo is the re-execution of the work between the rank's
	// last barrier and the crash point, charged as blocked time rather
	// than re-run: the redo replays deterministically into the same state
	// the first execution left, so only its duration — clock at the crash
	// minus clock at the last barrier — is modeled (DESIGN.md §8).
	ChargeCrashRedo

	numChargeKinds
)

func (k ChargeKind) String() string {
	switch k {
	case ChargeOps:
		return "ops"
	case ChargeLocalRead:
		return "local-read"
	case ChargeNS:
		return "ns"
	case ChargeGetLocal:
		return "get-local"
	case ChargeGetRemote:
		return "get-remote"
	case ChargeCacheHit:
		return "cache-hit"
	case ChargeCacheMiss:
		return "cache-miss"
	case ChargeCacheManage:
		return "cache-manage"
	case ChargeRetryBackoff:
		return "retry-backoff"
	case ChargeTimeout:
		return "timeout"
	case ChargeRetransmit:
		return "retransmit"
	case ChargeStall:
		return "stall"
	case ChargeCrashRestart:
		return "crash-restart"
	case ChargeCrashRedo:
		return "crash-redo"
	default:
		return "unknown"
	}
}

// ChargeObserver observes every charge of a run at its fold point, in
// canonical order per rank: kind and bytes identify the descriptor, ns is
// the raw duration for ChargeNS and fault-plane entries (0 otherwise), and
// now is the rank's clock immediately after the fold. Observers are a
// diagnostic surface (the charge-sequence pins record with one); they run
// on the rank's goroutine, so an observer may keep per-rank state without
// locking but must not touch shared state.
type ChargeObserver func(rank int, kind ChargeKind, bytes int, ns, now float64)

// SetChargeObserver installs an observer for all ranks of the world. It
// must be called before Run; installing one mid-run is a race.
func (c *Comm) SetChargeObserver(o ChargeObserver) { c.observer = o }

// charge folds one descriptor at its canonical point and reports it to the
// observer. cost is the charge's *unperturbed* cost in ns, a pure function
// of (kind, bytes) under the world's model except for the fault-plane
// kinds, whose duration rides to the observer as ns. req is set only for
// the get kinds, whose fold establishes the request's completion time
// (remote gets perturb the cost under noise here, where the RNG draw
// belongs). The hot charge helpers inline the observer-free case and only
// call charge when an observer is installed; the fault plane always does.
func (r *Rank) charge(kind ChargeKind, bytes int, cost float64, req *Request) {
	obsNS := 0.0
	switch kind {
	case ChargeOps, ChargeLocalRead:
		r.clock.Advance(cost)
		r.ctr.ComputeTime += cost
	case ChargeGetLocal:
		r.clock.Advance(cost)
		r.ctr.LocalGets++
		r.ctr.LocalBytes += int64(bytes)
		req.completeAt = r.clock.Now()
	case ChargeGetRemote:
		cost = r.clock.PerturbDuration(cost)
		req.completeAt = r.clock.Now() + cost
		r.ctr.Gets++
		r.ctr.RemoteBytes += int64(bytes)
		r.ctr.GetCost += cost
	case ChargeRetryBackoff, ChargeTimeout, ChargeStall:
		// Fault-plane recovery: raw folds — blocking, never perturbed,
		// no RNG draws (see Clock.AdvanceRaw). The duration is not a
		// pure function of (kind, bytes), so it rides to the observer.
		r.clock.AdvanceRaw(cost)
		r.ctr.FaultWait += cost
		obsNS = cost
	case ChargeRetransmit:
		r.clock.AdvanceRaw(cost)
		r.ctr.FaultWait += cost
		r.ctr.Retries++
		obsNS = cost
	case ChargeCrashRestart:
		r.clock.AdvanceRaw(cost)
		r.ctr.FaultWait += cost
		r.ctr.Crashes++
		obsNS = cost
	case ChargeCrashRedo:
		r.clock.AdvanceRaw(cost)
		r.ctr.FaultWait += cost
		obsNS = cost
	default: // the cache kinds: clock only, stats live in the cache
		r.clock.Advance(cost)
	}
	if r.observer != nil {
		r.observer(r.id, kind, bytes, obsNS, r.clock.Now())
	}
}

// plain reports whether charges take the zero-overhead path: no observer.
// The hot charge helpers below fold their arithmetic inline in that case
// and only go through charge otherwise.
func (r *Rank) plain() bool { return r.observer == nil }

// ChargeLocalRead charges a local memory read of the given byte count at
// LocalCost, accounted as compute time — the engines' charge for reading
// an adjacency list out of their own partition (or a delegation replica)
// without inventing the duration at the call site.
func (r *Rank) ChargeLocalRead(bytes int) {
	r.checkpoint()
	cost := r.comm.model.LocalCost(bytes)
	if r.plain() {
		r.clock.Advance(cost)
		r.ctr.ComputeTime += cost
		return
	}
	r.charge(ChargeLocalRead, bytes, cost, nil)
}

// ChargeCacheHit charges serving bytes from an RMA cache (HitCost) and
// returns the unperturbed cost for the cache's own statistics. Part of the
// cache charge surface the CLaMPI layer records as descriptors instead of
// reaching through Clock().
func (r *Rank) ChargeCacheHit(bytes int) float64 {
	cost := r.comm.model.HitCost(bytes)
	if r.plain() {
		r.clock.Advance(cost)
		return cost
	}
	r.charge(ChargeCacheHit, bytes, cost, nil)
	return cost
}

// ChargeCacheMissOverhead charges CLaMPI's fixed per-miss bookkeeping cost
// and returns it.
func (r *Rank) ChargeCacheMissOverhead() float64 {
	cost := r.comm.model.CacheMissOverhead
	if r.plain() {
		r.clock.Advance(cost)
		return cost
	}
	r.charge(ChargeCacheMiss, 0, cost, nil)
	return cost
}

// ChargeCacheManage charges cache-management work proportional to bytes at
// local-memory cost (entry installation, buffer growth) and returns it.
func (r *Rank) ChargeCacheManage(bytes int) float64 {
	cost := r.comm.model.LocalCost(bytes)
	if r.plain() {
		r.clock.Advance(cost)
		return cost
	}
	r.charge(ChargeCacheManage, bytes, cost, nil)
	return cost
}
