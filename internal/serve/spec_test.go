package serve_test

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/lcc"
	"repro/internal/part"
	"repro/internal/serve"
)

// Schema tests: the load spec is the one validated wire form of an
// instance (the lccd load body and the manifest payload), and a query's
// run spec is validated before admission.

// v1Manifests are version-1 manifest files byte for byte as the daemon
// wrote them before LoadSpec replaced the separate Manifest record: one
// load with every field set, and one with only name and dataset (whose
// ranks and max_concurrent were persisted after defaulting to 1).
var v1Manifests = []struct {
	name string
	raw  string
	spec serve.LoadSpec
	want serve.Config
}{
	{
		name: "fb",
		raw:  "LCCMANIF\x01\x00\x00\x00\xde\x00\x00\x00{\"name\":\"fb\",\"dataset\":\"fb-sim\",\"ranks\":4,\"scheme\":\"cyclic\",\"delegate_bytes\":65536,\"storage\":\"compressed\",\"mem_budget_bytes\":1073741824,\"max_concurrent\":2,\"queue_depth\":4,\"default_timeout_ms\":5000,\"stall_timeout_ms\":60000}\xdb\x1fOV",
		spec: serve.LoadSpec{
			Name: "fb", Dataset: "fb-sim", Ranks: 4, Scheme: "cyclic",
			DelegateBytes: 65536, Storage: "compressed", MemBudgetBytes: 1 << 30,
			MaxConcurrent: 2, QueueDepth: 4, DefaultTimeoutMS: 5000, StallTimeoutMS: 60000,
		},
		want: serve.Config{
			Dataset: "fb-sim",
			SnapshotOptions: lcc.SnapshotOptions{
				Ranks: 4, Scheme: part.Cyclic, DelegateBytes: 65536,
				Storage: lcc.StorageCompressed, MemBudgetBytes: 1 << 30,
			},
			MaxConcurrent: 2, QueueDepth: 4,
			DefaultTimeout: 5 * time.Second, StallTimeout: time.Minute,
		},
	},
	{
		name: "min",
		raw:  "LCCMANIF\x01\x00\x00\x00`\x00\x00\x00{\"name\":\"min\",\"dataset\":\"fb-sim\",\"ranks\":1,\"scheme\":\"block\",\"storage\":\"auto\",\"max_concurrent\":1}\xa5\r/\x93",
		spec: serve.LoadSpec{
			Name: "min", Dataset: "fb-sim", Ranks: 1, Scheme: "block", Storage: "auto", MaxConcurrent: 1,
		},
		want: serve.Config{
			Dataset:         "fb-sim",
			SnapshotOptions: lcc.SnapshotOptions{Ranks: 1, Scheme: part.Block, Storage: lcc.StorageAuto},
			MaxConcurrent:   1,
		},
	},
}

// TestManifestV1Compat: manifests written before the schema merge still
// decode into the same spec and Config, recovery restores them, and the
// same spec saved today is the same bytes.
func TestManifestV1Compat(t *testing.T) {
	ms := testStore(t)
	for _, tc := range v1Manifests {
		if err := os.WriteFile(ms.Path(tc.name), []byte(tc.raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	specs, skipped := ms.LoadAll()
	if len(skipped) != 0 || len(specs) != len(v1Manifests) {
		t.Fatalf("LoadAll = %d specs, skipped %v; want %d, none", len(specs), skipped, len(v1Manifests))
	}
	for i, tc := range v1Manifests {
		got := specs[i]
		if *got != tc.spec {
			t.Errorf("%s: spec\n got %+v\nwant %+v", tc.name, *got, tc.spec)
		}
		cfg, err := got.Config()
		if err != nil {
			t.Fatalf("%s: Config: %v", tc.name, err)
		}
		if cfg != tc.want {
			t.Errorf("%s: Config\n got %+v\nwant %+v", tc.name, cfg, tc.want)
		}
	}

	sup := serve.NewSupervisor()
	sup.SetManifestStore(ms)
	rep := sup.Recover(false)
	if len(rep.Restored) != 2 || len(rep.Skipped) != 0 {
		t.Fatalf("Recover = %+v, want fb and min restored", rep)
	}

	fresh := testStore(t)
	for _, tc := range v1Manifests {
		spec := tc.spec
		if err := fresh.Save(&spec); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(fresh.Path(tc.name))
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != tc.raw {
			t.Errorf("%s: saved bytes differ from the version-1 file:\n got %q\nwant %q", tc.name, raw, tc.raw)
		}
	}
}

// TestLoadSpecRejects: every invalid load fails typed before a snapshot
// is built, and leaves nothing registered or persisted. The rank count is
// one that exhausts host memory if it ever reached the partitioner.
func TestLoadSpecRejects(t *testing.T) {
	ms := testStore(t)
	sup := serve.NewSupervisor()
	sup.SetManifestStore(ms)
	for name, spec := range map[string]serve.LoadSpec{
		"no name":        {Dataset: "fb-sim"},
		"no dataset":     {Name: "x"},
		"ranks cap":      {Name: "x", Dataset: "fb-sim", Ranks: 4 << 20},
		"negative ranks": {Name: "x", Dataset: "fb-sim", Ranks: -1},
		"scheme":         {Name: "x", Dataset: "fb-sim", Scheme: "nosuch"},
		"storage":        {Name: "x", Dataset: "fb-sim", Storage: "nosuch"},
		"queue depth":    {Name: "x", Dataset: "fb-sim", QueueDepth: -1},
		"timeout":        {Name: "x", Dataset: "fb-sim", StallTimeoutMS: -5},
	} {
		inst, err := sup.Load(spec)
		if !errors.Is(err, lcc.ErrInvalidSpec) || inst != nil {
			t.Errorf("%s: Load = %v, %v; want nil, ErrInvalidSpec", name, inst, err)
		}
	}
	if infos := sup.List(); len(infos) != 0 {
		t.Errorf("rejected loads registered instances: %+v", infos)
	}
	if specs, _ := ms.LoadAll(); len(specs) != 0 {
		t.Errorf("rejected loads persisted manifests: %+v", specs)
	}
	if _, err := sup.Load(serve.LoadSpec{Name: "x", Dataset: "fb-sim", Ranks: lcc.MaxRanks / 64}); err != nil {
		t.Errorf("load within the cap: %v", err)
	}
}

// TestRunSpecRejectedBeforeAdmission: a query with a typo fails typed at
// the supervisor without touching the instance's counters; a valid spec
// resolves to the golden pull configuration.
func TestRunSpecRejectedBeforeAdmission(t *testing.T) {
	sup := serve.NewSupervisor()
	if _, err := sup.Load(serve.LoadSpec{Name: "fb", Dataset: "fb-sim", Ranks: 4}); err != nil {
		t.Fatalf("Load: %v", err)
	}
	ctx := context.Background()
	for name, q := range map[string]serve.Query{
		"engine":      {Engine: "bogus"},
		"spec engine": {Spec: &lcc.RunSpec{Engine: "push"}},
		"method":      {Spec: &lcc.RunSpec{Method: "nosuch"}},
		"workers":     {Spec: &lcc.RunSpec{Workers: 1 << 27}},
		"faults":      {Spec: &lcc.RunSpec{Faults: "nosuch=1"}},
		"spec+engine": {Engine: "lcc", Spec: &lcc.RunSpec{}},
		"spec+opts":   {Options: lcc.Options{Workers: 2}, Spec: &lcc.RunSpec{}},
	} {
		if _, err := sup.Run(ctx, "fb", q); !errors.Is(err, lcc.ErrInvalidSpec) {
			t.Errorf("%s: err = %v, want ErrInvalidSpec", name, err)
		}
	}
	inst, _ := sup.Get("fb")
	if ctr := inst.Counters(); ctr != (serve.Counters{}) {
		t.Fatalf("counters moved by rejected queries: %+v", ctr)
	}
	res, err := sup.Run(ctx, "fb", serve.Query{Spec: &lcc.RunSpec{Engine: "lcc", Method: "hybrid", Workers: 2}})
	if err != nil {
		t.Fatalf("valid spec: %v", err)
	}
	assertPins(t, res)
}
