package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestNewestOfMode: a single candidate record is diffed against the newest
// committed record of its own mode, skipping newer records of other modes.
func TestNewestOfMode(t *testing.T) {
	dir := t.TempDir()
	write := func(name, mode string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(`{"mode":"`+mode+`"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	write("BENCH_1.json", "")
	write("BENCH_2.json", "")
	write("BENCH_10.json", "serve")
	write("BENCH_11.json", "scale")
	cands := t.TempDir()
	for mode, want := range map[string]string{"micro": "BENCH_2.json", "serve": "BENCH_10.json", "scale": "BENCH_11.json"} {
		cand := filepath.Join(cands, mode+".json")
		if err := os.WriteFile(cand, []byte(`{"mode":"`+mode+`"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := newestOfMode(dir, cand)
		if err != nil || filepath.Base(got) != want {
			t.Errorf("%s candidate: got %q, %v; want %s", mode, got, err, want)
		}
	}
	e2e := write("cand.json", "e2e")
	if got, err := newestOfMode(dir, e2e); err == nil {
		t.Errorf("e2e candidate matched %s, want an error", got)
	}
}
