package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval around a call the benchmark makes into the
// program (or, for server-reported intervals, one the program reported
// back). Times are nanoseconds since the recorder's epoch.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Req    int    `json:"req"` // request or run id; 0 when the span has none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, so untraced runs pay one nil check per call site.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Add records a span over [start, end] and returns its id (0 on a nil
// recorder, which is also the "no parent" id).
func (r *Recorder) Add(name string, parent, req int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()})
	return id
}

// Begin opens a span that ends when end is called. The id is the parent
// id for the span's children.
func (r *Recorder) Begin(name string, parent, req int) (id int, end func()) {
	if r == nil {
		return 0, func() {}
	}
	start := time.Now()
	id = r.Add(name, parent, req, start, start)
	return id, func() {
		now := time.Now()
		r.mu.Lock()
		r.spans[id-1].End = now.Sub(r.epoch).Nanoseconds()
		r.mu.Unlock()
	}
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Family returns span id and its direct children.
func (r *Recorder) Family(id int) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := []Span{r.spans[id-1]}
	for _, s := range r.spans[id:] {
		if s.Parent == id {
			fam = append(fam, s)
		}
	}
	return fam
}

// selfTimes returns every span's self time: its duration minus the length
// of the union of its children's intervals, clipped to its own.
func selfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of kids' intervals inside parent's.
func covered(parent Span, kids []Span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// spanSummary aggregates spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// WriteFile writes every span and a per-name summary (count, total and
// self time) as one JSON document.
func (r *Recorder) WriteFile(path string) error {
	spans := r.Spans()
	self := selfTimes(spans)
	byName := map[string]*spanSummary{}
	var names []string
	for _, s := range spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
			names = append(names, s.Name)
		}
		sum.Count++
		sum.TotalMS += ms(float64(s.End - s.Start))
		sum.SelfMS += ms(float64(self[s.ID]))
	}
	summary := make([]spanSummary, len(names))
	for i, n := range names {
		summary[i] = *byName[n]
	}
	raw, err := json.MarshalIndent(struct {
		Summary []spanSummary `json:"summary"`
		Spans   []Span        `json:"spans"`
	}{summary, spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
