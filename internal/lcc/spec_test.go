package lcc

import (
	"errors"
	"testing"

	"repro/internal/intersect"
)

// TestRunSpecOptions pins the one translation from the run schema into
// engine options: names parse, double buffering is on unless NoOverlap,
// and an omitted cache size takes the paper sizing.
func TestRunSpecOptions(t *testing.T) {
	const n = 4039
	opt, err := RunSpec{Method: "binary", Workers: 3, Caching: true, CacheAdj: 1 << 20, DegreeScores: true}.Options(n)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Method != intersect.MethodBinary || opt.Workers != 3 || !opt.DoubleBuffer || !opt.DegreeScores {
		t.Errorf("options = %+v", opt)
	}
	if opt.OffsetsCacheBytes != 16*(2*n/5) || opt.AdjCacheBytes != 1<<20 {
		t.Errorf("cache sizes = %d, %d; want %d, %d", opt.OffsetsCacheBytes, opt.AdjCacheBytes, 16*(2*n/5), 1<<20)
	}
	opt, err = RunSpec{NoOverlap: true, CacheOffsets: 99, Faults: "seed=3,get=0.01"}.Options(n)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Method != intersect.MethodHybrid || opt.DoubleBuffer || opt.OffsetsCacheBytes != 0 || opt.Faults == nil {
		t.Errorf("options = %+v (sizes only apply with caching)", opt)
	}
	if opt, _ := (RunSpec{Caching: true}).Options(n); opt.AdjCacheBytes != 64<<20 {
		t.Errorf("default C_adj = %d, want 64 MiB", opt.AdjCacheBytes)
	}
}

// TestRunSpecRejects: unknown names and out-of-range numbers fail typed.
func TestRunSpecRejects(t *testing.T) {
	for name, s := range map[string]RunSpec{
		"method":           {Method: "nosuch"},
		"negative workers": {Workers: -1},
		"workers cap":      {Workers: MaxRanks + 1},
		"cache size":       {Caching: true, CacheAdj: -1},
		"faults":           {Faults: "get=2"},
	} {
		if err := s.Validate(); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: Validate = %v, want ErrInvalidSpec", name, err)
		}
	}
}
