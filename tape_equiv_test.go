// Charge-sequence pins: the contract of DESIGN.md §6 is that a rank's
// charges form one canonical per-rank sequence, each folded into the clock
// at its canonical point. These tests record that sequence with a
// ChargeObserver for every golden RMA configuration and pin, per rank, its
// length and a digest of every (kind, bytes, ns, clock) record, the clock
// values as float bits. Any host-side reordering that leaks into the model
// — a hoisted issue, a dropped or doubled charge, a noise draw out of
// sequence — fails naming the configuration and the first divergent rank,
// even where SimTime happens to come out unchanged.
package repro_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/lcc"
	"repro/internal/rma"
)

// chargeRec is one observed charge of one rank, in canonical order.
type chargeRec struct {
	kind  rma.ChargeKind
	bytes int
	ns    float64
	now   float64 // rank clock immediately after the fold
}

// chargeLog collects per-rank charge sequences. Rank r's goroutine is the
// only writer of seq[r], so no locking is needed.
type chargeLog struct {
	seq [][]chargeRec
}

func newChargeLog(ranks int) *chargeLog {
	return &chargeLog{seq: make([][]chargeRec, ranks)}
}

func (l *chargeLog) observer() rma.ChargeObserver {
	return func(rank int, kind rma.ChargeKind, bytes int, ns, now float64) {
		l.seq[rank] = append(l.seq[rank], chargeRec{kind: kind, bytes: bytes, ns: ns, now: now})
	}
}

// rankPin is one rank's pinned charge sequence: its length and the FNV-64a
// digest of its records, each hashed as four little-endian words (kind,
// bytes, ns bits, clock bits).
type rankPin struct {
	n      int
	digest uint64
}

func (p rankPin) String() string { return fmt.Sprintf("{%d, %#x}", p.n, p.digest) }

// pins digests every rank's sequence.
func (l *chargeLog) pins() []rankPin {
	out := make([]rankPin, len(l.seq))
	var buf [32]byte
	for r, seq := range l.seq {
		h := fnv.New64a()
		for _, c := range seq {
			binary.LittleEndian.PutUint64(buf[0:], uint64(c.kind))
			binary.LittleEndian.PutUint64(buf[8:], uint64(c.bytes))
			binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(c.ns))
			binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(c.now))
			h.Write(buf[:])
		}
		out[r] = rankPin{n: len(seq), digest: h.Sum64()}
	}
	return out
}

// chargePinConfigs mirrors the golden RMA configurations (golden_test.go)
// with a charge observer threaded through: run executes the engine at four
// ranks on fb-sim and returns the run's SimTime. want is the pinned
// per-rank sequence.
var chargePinConfigs = []struct {
	name string
	want []rankPin
	run  func(t *testing.T, g *graph.Graph, obs rma.ChargeObserver) float64
}{
	{
		name: "pull",
		want: []rankPin{
			{114966, 0x482b428e467e877f},
			{112913, 0xb689de3e9d17745},
			{113417, 0x9d1aa1ba64eafc51},
			{114353, 0x232e70067c95c357},
		},
		run: func(t *testing.T, g *graph.Graph, obs rma.ChargeObserver) float64 {
			opt := goldenBase()
			opt.ChargeObserver = obs
			res, err := lcc.Run(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			return res.SimTime
		},
	},
	{
		name: "cached",
		want: []rankPin{
			{208850, 0x42a621d8fabcecbc},
			{206691, 0x60fb5deb744d83a3},
			{207817, 0xabe18f2c348b1546},
			{209217, 0x303f4ac7a24cb34f},
		},
		run: func(t *testing.T, g *graph.Graph, obs rma.ChargeObserver) float64 {
			opt := goldenBase()
			opt.Caching = true
			opt.OffsetsCacheBytes = 1 << 14
			opt.AdjCacheBytes = 1 << 16
			opt.AdjScorePolicy = lcc.ScoreDegree
			opt.ChargeObserver = obs
			res, err := lcc.Run(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			return res.SimTime
		},
	},
	{
		name: "noise",
		want: []rankPin{
			{114966, 0x6e89a151d7aff377},
			{112913, 0xb9d5a8e9b769751d},
			{113417, 0x49ea295ddd2cf6fe},
			{114353, 0x4944e200a4f1462b},
		},
		run: func(t *testing.T, g *graph.Graph, obs rma.ChargeObserver) float64 {
			opt := goldenBase()
			opt.Model = rma.DefaultCostModel()
			opt.Model.Noise = rma.NoiseSpec{Amp: 0.3, SpikePeriodNS: 1e6, SpikeNS: 2e4, Seed: 42}
			opt.ChargeObserver = obs
			res, err := lcc.Run(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			return res.SimTime
		},
	},
	{
		name: "push",
		want: []rankPin{
			{223444, 0x9c48c108a046d868},
			{228122, 0xebf438aed59809df},
			{241067, 0x552a78ca80f727ee},
			{239880, 0x3cb5084e3a261523},
		},
		run: func(t *testing.T, g *graph.Graph, obs rma.ChargeObserver) float64 {
			opt := goldenBase()
			opt.ChargeObserver = obs
			res, err := lcc.RunPush(g, lcc.PushOptions{Options: opt, Aggregation: lcc.PushBatched})
			if err != nil {
				t.Fatal(err)
			}
			return res.SimTime
		},
	},
	{
		name: "replicated",
		want: []rankPin{
			{103787, 0x492263bd660e566f},
			{104124, 0x8ffb61dae16ff6cb},
			{103638, 0xf2fe73ce84e294cc},
			{103058, 0x9b1464fc9e814f65},
		},
		run: func(t *testing.T, g *graph.Graph, obs rma.ChargeObserver) float64 {
			opt := goldenBase()
			opt.ChargeObserver = obs
			res, err := lcc.RunReplicated(g, lcc.ReplicatedOptions{Options: opt, Replication: 2})
			if err != nil {
				t.Fatal(err)
			}
			return res.SimTime
		},
	},
	{
		name: "jaccard",
		want: []rankPin{
			{113981, 0xc2c1bc6b92c36d5c},
			{111928, 0xaa275d76388493e0},
			{112432, 0x882d411457f9cbeb},
			{113367, 0x1b96455b4de71dc1},
		},
		run: func(t *testing.T, g *graph.Graph, obs rma.ChargeObserver) float64 {
			opt := goldenBase()
			opt.ChargeObserver = obs
			res, err := lcc.RunJaccard(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			return res.SimTime
		},
	},
	{
		name: "grid",
		want: []rankPin{
			{3944, 0x8a82b14a698d23f1},
			{3944, 0x93bf92ae2dca7e93},
			{3946, 0x65a276d6fbfab5f3},
			{3946, 0xaf4f1997eb9f217a},
		},
		run: func(t *testing.T, g *graph.Graph, obs rma.ChargeObserver) float64 {
			res, err := grid.Run(g, grid.Options{Ranks: 4, ChargeObserver: obs})
			if err != nil {
				t.Fatal(err)
			}
			return res.SimTime
		},
	},
}

// TestChargeTapeEquivalence records every golden RMA configuration's charge
// sequence and checks that each rank's is equivalent to the pinned one:
// same length, same digest. The observed run must also land on the
// configuration's golden SimTime.
func TestChargeTapeEquivalence(t *testing.T) {
	g := gen.MustLoad("fb-sim")
	const ranks = 4
	for _, cfg := range chargePinConfigs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			log := newChargeLog(ranks)
			sim := cfg.run(t, g, log.observer())
			for _, gc := range goldenConfigs {
				if gc.name == cfg.name && math.Float64bits(sim) != gc.want.simBits {
					t.Errorf("%s: observed SimTime bits %#x, golden %#x", cfg.name, math.Float64bits(sim), gc.want.simBits)
				}
			}
			got := log.pins()
			if len(got) != len(cfg.want) {
				t.Fatalf("%s: %d ranks recorded, %d pinned", cfg.name, len(got), len(cfg.want))
			}
			for r := range got {
				if got[r] != cfg.want[r] {
					t.Fatalf("%s: rank %d charge sequence %v, pinned %v (all ranks: %v)",
						cfg.name, r, got[r], cfg.want[r], got)
				}
			}
		})
	}
}

// TestChargeTapeObserverMatchesGolden anchors the observed sequences to
// the pinned results: an observed run must still reproduce the golden
// SimTime bits (observation must not perturb the model).
func TestChargeTapeObserverMatchesGolden(t *testing.T) {
	g := gen.MustLoad("fb-sim")
	log := newChargeLog(4)
	opt := goldenBase()
	opt.ChargeObserver = log.observer()
	res, err := lcc.Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	const wantBits = 0x419e343dbb9986d8 // golden "pull" SimTime pin
	if got := math.Float64bits(res.SimTime); got != wantBits {
		t.Errorf("observed run SimTime bits = %#x, want %#x", got, wantBits)
	}
	// Sanity: the sequence is non-trivial and its last fold lands at the
	// slowest rank's finish time.
	maxNow := 0.0
	for _, s := range log.seq {
		if len(s) == 0 {
			t.Fatal("a rank recorded no charges")
		}
		if now := s[len(s)-1].now; now > maxNow {
			maxNow = now
		}
	}
	if maxNow > res.SimTime {
		t.Errorf("last observed fold (%v) exceeds SimTime (%v)", maxNow, res.SimTime)
	}
}
