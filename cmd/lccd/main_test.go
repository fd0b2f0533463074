package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/serve"
)

// post sends one JSON body through the server's handlers and decodes the
// reply into v.
func post(t *testing.T, s *server, path, body string, v any) int {
	t.Helper()
	rec := httptest.NewRecorder()
	s.http.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if err := json.NewDecoder(rec.Body).Decode(v); err != nil {
		t.Fatalf("%s %s: decode reply: %v", path, body, err)
	}
	return rec.Code
}

// TestTyposRejectedBeforeAdmission: a misspelled name or an out-of-range
// number in a load or run body is a 400 "bad-request". No instance is
// registered and the loaded instance's counters do not move.
func TestTyposRejectedBeforeAdmission(t *testing.T) {
	s := newServer()
	var info serve.InstanceInfo
	if code := post(t, s, "/v1/load", `{"name":"fb","dataset":"fb-sim","ranks":4}`, &info); code != http.StatusOK {
		t.Fatalf("load: status %d", code)
	}
	for _, body := range []string{
		`{"name":"x","dataset":"fb-sim","scheme":"nosuch"}`,
		`{"name":"x","dataset":"fb-sim","storage":"nosuch"}`,
		`{"name":"x","dataset":"fb-sim","ranks":4194304}`,
		`{"name":"x"}`,
	} {
		var e errorBody
		if code := post(t, s, "/v1/load", body, &e); code != http.StatusBadRequest || e.Reason != "bad-request" {
			t.Errorf("load %s: status %d reason %q, want 400 bad-request", body, code, e.Reason)
		}
	}
	for _, body := range []string{
		`{"instance":"fb","method":"nosuch"}`,
		`{"instance":"fb","engine":"nosuch"}`,
		`{"instance":"fb","workers":134217728}`,
		`{"instance":"fb","workers":-1}`,
		`{"instance":"fb","faults":"nosuch"}`,
	} {
		var e errorBody
		if code := post(t, s, "/v1/run", body, &e); code != http.StatusBadRequest || e.Reason != "bad-request" {
			t.Errorf("run %s: status %d reason %q, want 400 bad-request", body, code, e.Reason)
		}
	}
	infos := s.sup.List()
	if len(infos) != 1 || infos[0].Name != "fb" {
		t.Fatalf("instances after rejected loads: %+v", infos)
	}
	if ctr := infos[0].Counters; ctr != (serve.Counters{}) {
		t.Fatalf("counters moved by rejected runs: %+v", ctr)
	}
}

// TestCachedDefaultMatchesLccrun: a cached query that omits both cache
// sizes models the same time through lccd as through lccrun, whose paper
// sizing (16·⌊2n/5⌋ bytes of C_offsets, 64 MiB of C_adj) is the one
// default of the run schema.
func TestCachedDefaultMatchesLccrun(t *testing.T) {
	g, err := gen.Load("fb-sim")
	if err != nil {
		t.Fatal(err)
	}
	want, err := lcc.Run(g, lcc.Options{
		Ranks: 4, Method: intersect.MethodHybrid, DoubleBuffer: true, Caching: true,
		OffsetsCacheBytes: 16 * (2 * g.NumVertices() / 5), AdjCacheBytes: 64 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer()
	var info serve.InstanceInfo
	if code := post(t, s, "/v1/load", `{"name":"fb","dataset":"fb-sim","ranks":4}`, &info); code != http.StatusOK {
		t.Fatalf("load: status %d", code)
	}
	var res smokeResult
	if code := post(t, s, "/v1/run", `{"instance":"fb","caching":true}`, &res); code != http.StatusOK {
		t.Fatalf("run: status %d", code)
	}
	if math.Float64bits(res.SimTime) != math.Float64bits(want.SimTime) {
		t.Fatalf("lccd cached SimTime = %v ns, lccrun sizing gives %v ns", res.SimTime, want.SimTime)
	}
}
