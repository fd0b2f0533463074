package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lcc"
	"repro/internal/part"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed: tail must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      int
		v      float64
		enough bool
	}{
		{100, 90, 90, true},   // p91 = 91 has only 9 beyond
		{1000, 99, 990, true}, // p99 has exactly 10 beyond
		{52, 80, 42, true},    // nearest rank ceil(0.80*52) = 42
		{20, 50, 10, true},    // p50 is the lowest reportable tail
		{15, 50, 8, false},    // too few: the median, flagged
	} {
		q, v, ok := tail(seq(tc.n))
		if q != tc.q || v != tc.v || ok != tc.enough {
			t.Errorf("n=%d: tail = p%d %v %v, want p%d %v %v", tc.n, q, v, ok, tc.q, tc.v, tc.enough)
		}
	}
	// Ties at the top: twelve samples of 100 have nothing above them, so p90
	// (100) has no sample beyond it and the tail drops below the ties.
	xs := seq(88)
	for i := 0; i < 12; i++ {
		xs = append(xs, 100)
	}
	if q, v, _ := tail(xs); v != 88 || q != 88 {
		t.Errorf("ties: tail = p%d %v, want p88 88", q, v)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestScheduleIsDeterministic(t *testing.T) {
	d := 15 * time.Second
	a, b := schedule(7, 2, rateHigh, burstHigh, d), schedule(7, 2, rateHigh, burstHigh, d)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 2, rateHigh, burstHigh, d)) || reflect.DeepEqual(a, schedule(7, 1, rateHigh, burstHigh, d)) {
		t.Fatal("schedule ignores its seed or stream")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) || a[len(a)-1] >= d {
		t.Fatal("due times not increasing inside the phase")
	}
	if len(a) != 90 {
		t.Fatalf("%d arrivals, want rate × duration × burst = 90", len(a))
	}
	// Bursts are whole and at least 1-burstJitter slots apart.
	slot := d / 30
	for i := 0; i < len(a); i += burstHigh {
		for j := i + 1; j < i+burstHigh; j++ {
			if a[j] != a[i] {
				t.Fatalf("request %d due at %v, its burst at %v", j, a[j], a[i])
			}
		}
		if i > 0 && float64(a[i]-a[i-1]) < (1-burstJitter)*float64(slot) {
			t.Fatalf("bursts %v apart, want at least %.0f%% of the %v slot", a[i]-a[i-1], 100*(1-burstJitter), slot)
		}
	}
	if len(schedule(7, 2, rateHigh, burstHigh, 100*time.Millisecond)) != 0 {
		t.Fatal("a phase too short for one burst should send nothing")
	}
	ba, _ := json.Marshal(queryFor(7))
	bb, _ := json.Marshal(queryFor(7))
	if string(ba) != string(bb) {
		t.Fatal("same seed, different request bodies")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps 2
		{ID: 4, Parent: 1, Start: 60, End: 70},
		{ID: 5, Parent: 1, Start: 90, End: 120}, // runs past the parent
		{ID: 6, Parent: 3, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	if self[1] != 100-(40+10+10) {
		t.Errorf("parent self = %d, want 40", self[1])
	}
	if self[3] != 30-10 || self[2] != 20 {
		t.Errorf("child self = %d, %d", self[3], self[2])
	}

	rec := newRecorder()
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := rec.Add("request", 0, 1, at(0), at(100))
	rec.Add("other", 0, 2, at(0), at(100))
	rec.Add("conn_wait", root, 1, at(0), at(5))
	rec.Add("run_wall", root, 1, at(20), at(90))
	if got := selfTimes(rec.Family(root))[root]; got != int64(25*time.Millisecond) {
		t.Errorf("recorded self time = %v, want 25ms", time.Duration(got))
	}
	var nilRec *Recorder
	if id, end := nilRec.Begin("x", 0, 0); id != 0 {
		t.Error("nil recorder returned a span id")
	} else {
		end()
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestPrintedMetricsAreDeclared(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, e2eMetrics) {
		t.Errorf("end_to_end in BENCHMARK.json differs from e2eMetrics:\n%v\n%v", e2e, e2eMetrics)
	}
	if !reflect.DeepEqual(layer, layerMetrics) {
		t.Errorf("per_layer in BENCHMARK.json differs from layerMetrics:\n%v\n%v", layer, layerMetrics)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), e2eMetrics...), layerMetrics...) {
		if !name.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or repeated", d.name)
		}
		seen[d.name] = true
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, program has %d workloads", names, len(workloads))
	}
}

func TestResultLineNeedsExactlyTheDeclaredMetrics(t *testing.T) {
	o := &outcome{values: map[string]float64{}}
	for _, d := range e2eMetrics {
		o.set(d.name, 1)
	}
	o.set("lcc.run_ms", 1) // declared elsewhere: allowed, not printed
	line, err := resultLine(e2eMetrics, o)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct bool
		Metrics map[string]metricValue
	}
	if err := json.Unmarshal(line, &got); err != nil || !got.Correct || len(got.Metrics) != len(e2eMetrics) {
		t.Fatalf("result line %s (%v)", line, err)
	}
	o.set("made.up", 1)
	if _, err := resultLine(e2eMetrics, o); err == nil {
		t.Error("undeclared metric accepted")
	}
	delete(o.values, "made.up")
	delete(o.values, "sim_ms")
	if _, err := resultLine(e2eMetrics, o); err == nil {
		t.Error("missing metric accepted")
	}
}

func TestOracleCatchesWrongOutput(t *testing.T) {
	g := gen.Prepare(gen.ErdosRenyi(512, 4096, graph.Undirected, 3), 3)
	or := newOracle(g)
	snap, err := lcc.NewSnapshot(g, 4, part.Block, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := snap.RunCtx(context.Background(), lcc.Options{DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	if msg := or.check(res); msg != "" {
		t.Fatalf("correct run rejected: %s", msg)
	}
	if rp := replay(g); rp.sumT != or.sumT || rp.calls != int64(g.NumArcs()) {
		t.Fatalf("replay sum %d over %d calls, oracle %d over %d arcs", rp.sumT, rp.calls, or.sumT, g.NumArcs())
	}
	res.LCC[7] += 1e-12
	if or.check(res) == "" {
		t.Fatal("perturbed score accepted")
	}
}

func TestAddrWatcherFindsServingLine(t *testing.T) {
	found := make(chan string, 1)
	w := &addrWatcher{found: found}
	for _, chunk := range []string{"lccd: recov", "ered 0\nlccd: serving on http://127.0.0.1:4", "1234\nmore\n"} {
		if _, err := w.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	if got := <-found; got != "127.0.0.1:41234" {
		t.Fatalf("address %q", got)
	}
}
