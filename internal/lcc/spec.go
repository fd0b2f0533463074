package lcc

import (
	"cmp"
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/intersect"
)

// MaxRanks bounds the rank count a load may request and the worker count
// a run may ask for. It sits far above every configuration the evaluation
// uses (64 ranks at most) and far below what exhausts host memory: the
// per-rank setup tables grow with p even on a tiny graph.
const MaxRanks = 4096

// ErrInvalidSpec marks a query or load spec that failed validation: an
// unknown name or an out-of-range number. Servers map it to a 400.
var ErrInvalidSpec = errors.New("invalid spec")

// RunSpec is the wire form of one query's per-run knobs: the JSON body
// lccd accepts on /v1/run (embedded in it) and what lccrun fills from its
// flags. Options is its only translation into engine options.
type RunSpec struct {
	// Engine names the serving engine, "lcc" (default) or "jaccard";
	// serve dispatches on it and Options does not read it. lccrun leaves
	// it empty: its -engine picks among its own pull/push/replicated.
	Engine string `json:"engine"`
	// Method is an intersect.ParseMethod name; "" selects the hybrid.
	Method  string `json:"method"`
	Workers int    `json:"workers"`
	// Caching enables both CLaMPI caches. A capacity of 0 selects the
	// paper sizing (PaperCacheBytes).
	Caching      bool `json:"caching"`
	CacheOffsets int  `json:"cache_offsets_bytes"`
	CacheAdj     int  `json:"cache_adj_bytes"`
	DegreeScores bool `json:"degree_scores"`
	// NoOverlap disables double buffering (§III-A).
	NoOverlap bool `json:"no_overlap"`
	// Faults is a fault.ParseSpec schedule; "" is off.
	Faults string `json:"faults"`
}

// Validate reports whether the spec converts into Options; the error
// wraps ErrInvalidSpec.
func (s RunSpec) Validate() error {
	_, err := s.Options(0)
	return err
}

// Options validates the spec and converts it into engine options for a
// graph of n vertices, which sizes the default C_offsets. The
// distribution fields (Ranks, Scheme, DelegateBytes) stay zero: they
// belong to the load, not the query.
func (s RunSpec) Options(n int) (Options, error) {
	method, err := intersect.ParseMethod(s.Method)
	if err != nil {
		return Options{}, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	faults, err := fault.ParseSpec(s.Faults)
	if err != nil {
		return Options{}, fmt.Errorf("%w: faults: %v", ErrInvalidSpec, err)
	}
	if s.Workers < 0 || s.Workers > MaxRanks {
		return Options{}, fmt.Errorf("%w: workers %d outside [0, %d]", ErrInvalidSpec, s.Workers, MaxRanks)
	}
	if s.CacheOffsets < 0 || s.CacheAdj < 0 {
		return Options{}, fmt.Errorf("%w: negative cache size", ErrInvalidSpec)
	}
	opt := Options{
		Workers:      s.Workers,
		Method:       method,
		DoubleBuffer: !s.NoOverlap,
		Caching:      s.Caching,
		DegreeScores: s.DegreeScores,
		Faults:       faults,
	}
	if s.Caching {
		offsets, adj := PaperCacheBytes(n)
		opt.OffsetsCacheBytes, opt.AdjCacheBytes = cmp.Or(s.CacheOffsets, offsets), cmp.Or(s.CacheAdj, adj)
	}
	return opt, nil
}

// PaperCacheBytes is the Fig. 9/10 cache budget scaled to this
// reproduction for a graph of n vertices: C_offsets holds 40% of the
// vertices as (start,end) pairs (the paper's 0.8·|V| allocation) and C_adj
// gets an ample 64 MiB (the paper's "rest of 16 GiB", which exceeds the
// small-scale graphs).
func PaperCacheBytes(n int) (offsets, adj int) {
	return 16 * (2 * n / 5), 64 << 20
}
