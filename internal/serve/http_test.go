package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dacpara"
	"dacpara/internal/aig"
	"dacpara/internal/metrics"
)

func startDaemon(t *testing.T, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	s := New(opts)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Drain(0)
	})
	return s, srv
}

func circuitBytes(t *testing.T, name string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := mustGenerate(t, name).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func submit(t *testing.T, base, query string, body []byte) (JobStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(base+"/jobs?"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp
}

func pollStatus(t *testing.T, base, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	_, srv := startDaemon(t, Options{MaxConcurrent: 2, QueueLimit: 8, WorkersPerJob: 2})
	base := srv.URL

	// Health first.
	resp, err := http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	// Submit the voter circuit and poll it to completion.
	input := circuitBytes(t, "voter")
	st, resp := submit(t, base, "engine=dacpara&workers=2", input)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job state %s", st.State)
	}
	final := pollStatus(t, base, st.ID, 60*time.Second)
	if final.State != StateDone {
		t.Fatalf("final state %s (err %q)", final.State, final.Error)
	}
	if final.Output == nil || final.Output.Ands >= final.Input.Ands {
		t.Fatalf("no optimization: %+v -> %+v", final.Input, final.Output)
	}

	// Download the result and check it is a valid, equivalent AIG.
	resp, err = http.Get(base + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	optimized, err := aig.Read(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("result not parseable AIGER: %v", err)
	}
	golden, err := aig.Read(bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if eq, err := dacpara.Equivalent(golden, optimized); err != nil || !eq {
		t.Fatalf("result not equivalent to input: eq=%v err=%v", eq, err)
	}

	// The job metrics endpoint serves a dacpara-metrics/v1 snapshot that
	// round-trips through the metrics package's own type.
	resp, err = http.Get(base + "/jobs/" + st.ID + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap metrics.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema != metrics.SchemaMetrics {
		t.Fatalf("metrics schema %q", snap.Schema)
	}
	if len(snap.Phases) == 0 || snap.QoR.FinalAnds != final.Output.Ands {
		t.Fatalf("snapshot inconsistent with status: %+v vs %+v", snap.QoR, final.Output)
	}

	// BENCH download format.
	resp, err = http.Get(base + "/jobs/" + st.ID + "/result?format=bench")
	if err != nil {
		t.Fatal(err)
	}
	bench, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(bench), "AND(") {
		t.Fatalf("bench download:\n%.200s", bench)
	}

	// Process metrics.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var pm ProcessMetrics
	err = json.NewDecoder(resp.Body).Decode(&pm)
	resp.Body.Close()
	if err != nil || pm.Schema != SchemaProcess {
		t.Fatalf("process metrics: %+v err=%v", pm, err)
	}
	if pm.Jobs.Submitted < 1 || pm.Jobs.Done < 1 {
		t.Fatalf("process counters: %+v", pm.Jobs)
	}
}

func TestHTTPCacheHitOnResubmission(t *testing.T) {
	_, srv := startDaemon(t, Options{MaxConcurrent: 2, QueueLimit: 8, WorkersPerJob: 2})
	input := circuitBytes(t, "mult")
	st, _ := submit(t, srv.URL, "engine=dacpara", input)
	first := pollStatus(t, srv.URL, st.ID, 60*time.Second)
	if first.State != StateDone || first.CacheHit {
		t.Fatalf("first: %+v", first)
	}
	st2, _ := submit(t, srv.URL, "engine=dacpara", input)
	second := pollStatus(t, srv.URL, st2.ID, 60*time.Second)
	if second.State != StateDone || !second.CacheHit {
		t.Fatalf("resubmission not a cache hit: state=%s cache_hit=%v", second.State, second.CacheHit)
	}
	if second.Output == nil || *second.Output != *first.Output {
		t.Fatalf("cache served different stats: %+v vs %+v", second.Output, first.Output)
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	s, srv := startDaemon(t, Options{MaxConcurrent: 1, QueueLimit: 1, WorkersPerJob: 2})
	slow := circuitBytes(t, "voter")
	st, _ := submit(t, srv.URL, "passes=60&zero_gain=1", slow)
	// Wait until it occupies the slot, then fill the queue.
	deadline := time.Now().Add(30 * time.Second)
	for s.Metrics().Jobs.Running == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if _, resp := submit(t, srv.URL, "passes=60&zero_gain=1", slow); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submission: %d", resp.StatusCode)
	}
	_, resp := submit(t, srv.URL, "passes=60&zero_gain=1", slow)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Cancel the blocker so cleanup drains fast.
	http.Post(srv.URL+"/jobs/"+st.ID+"/cancel", "", nil)
}

func TestHTTPCancelMidRun(t *testing.T) {
	_, srv := startDaemon(t, Options{MaxConcurrent: 1, QueueLimit: 2, WorkersPerJob: 2})
	st, _ := submit(t, srv.URL, "passes=500&zero_gain=1", circuitBytes(t, "voter"))

	// Wait for it to start, then cancel over HTTP.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur JobStatus
		json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if cur.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", cur.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let it get into the level loops
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %v %d", err, resp.StatusCode)
	}
	resp.Body.Close()

	final := pollStatus(t, srv.URL, st.ID, 10*time.Second)
	if final.State != StateCancelled {
		t.Fatalf("state after cancel = %s (err %q)", final.State, final.Error)
	}
	// A cancelled job has no result to download.
	resp, err = http.Get(srv.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of cancelled job: %d, want 409", resp.StatusCode)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, srv := startDaemon(t, Options{MaxConcurrent: 1, QueueLimit: 2})
	for _, tc := range []struct {
		query string
		body  string
	}{
		{"engine=frobnicate", "aag 0 0 0 0 0\n"},
		{"workers=minusone", "aag 0 0 0 0 0\n"},
		{"preset=p9", "aag 0 0 0 0 0\n"},
		{"format=vhdl", "aag 0 0 0 0 0\n"},
		{"", "this is not an AIGER file"},
	} {
		_, resp := submit(t, srv.URL, tc.query, []byte(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q body %.20q: status %d, want 400", tc.query, tc.body, resp.StatusCode)
		}
	}
	// Unknown job IDs are 404 everywhere.
	for _, path := range []string{"/jobs/nope", "/jobs/nope/result", "/jobs/nope/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestQueryToJob pins the query-string face of the job spec: every
// accepted parameter lands in its dacpara.Job field (explicit values
// over a preset's), and everything the parser or Job.Validate rejects —
// a key it does not know included — is a 400 before a job exists.
func TestQueryToJob(t *testing.T) {
	parse := func(query string) (JobRequest, error) {
		r := httptest.NewRequest(http.MethodPost, "/jobs?"+query, strings.NewReader("aag 0 0 0 0 0\n"))
		return parseSubmission(r, DefaultMaxUploadBytes)
	}
	for query, want := range map[string]dacpara.Job{
		"": {},
		"engine=abc&workers=3&k=5&passes=2&max_cuts=8&max_structs=5&classes=222&zero_gain=1&preserve_delay=true" +
			"&verify=1&verify_budget=1000&deadline=30s&format=aiger": {
			Engine: dacpara.EngineSerial, Workers: 3, K: 5, Passes: 2, MaxCuts: 8, MaxStructs: 5, Classes: 222,
			ZeroGain: true, PreserveDelay: true, Verify: true, VerifyBudget: 1000,
			DeadlineNs: int64(30 * time.Second),
		},
		"flow=b%3B+rw+-z%3B+b&workers=1": {Flow: "b; rw -z; b", Workers: 1},
		"preset=p1":                      dacpara.Job{}.WithKnobs(dacpara.P1()),
		"preset=p2&passes=3&workers=2":   {Classes: 134, Passes: 3, Workers: 2},
	} {
		req, err := parse(query)
		if err != nil {
			t.Errorf("query %q: %v", query, err)
			continue
		}
		if req.Job != want || req.Network == nil {
			t.Errorf("query %q parsed to %+v, want %+v", query, req.Job, want)
		}
	}

	for _, key := range []string{"pases", "partition", "seed"} {
		_, err := parse("engine=abc&" + key + "=2")
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(key)) ||
			!strings.Contains(err.Error(), strings.Join(submitParams, ", ")) {
			t.Errorf("unknown parameter %s: error %v does not name it and list the accepted ones", key, err)
		}
	}

	_, srv := startDaemon(t, Options{MaxConcurrent: 1, QueueLimit: 2})
	for _, query := range []string{
		"engine=frobnicate", "engine=dacpara-flat", "engine=abc&flow=b", "flow=b%3B+frobnicate", "flow=b;rw",
		"workers=minusone", "workers=-1", "k=3", "k=9", "passes=x", "max_cuts=x", "max_structs=x", "classes=x",
		"pases=2", "partition=2", "engine=abc&Workers=2", "zero_gain=maybe", "preserve_delay=maybe", "verify=maybe",
		"seed=x", "verify_budget=-1", "deadline=soon", "deadline=-5s", "preset=p9", "format=vhdl",
	} {
		if _, resp := submit(t, srv.URL, query, []byte("aag 0 0 0 0 0\n")); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", query, resp.StatusCode)
		}
	}
}

func TestHTTPListJobs(t *testing.T) {
	_, srv := startDaemon(t, Options{MaxConcurrent: 2, QueueLimit: 8})
	input := circuitBytes(t, "voter")
	var ids []string
	for i := 0; i < 3; i++ {
		st, _ := submit(t, srv.URL, fmt.Sprintf("passes=%d", i+1), input)
		ids = append(ids, st.ID)
	}
	resp, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(list.Jobs))
	}
	for i, j := range list.Jobs {
		if j.ID != ids[i] {
			t.Fatalf("listing order: got %s at %d, want %s", j.ID, i, ids[i])
		}
	}
}

func TestHTTPDeadlineParam(t *testing.T) {
	_, srv := startDaemon(t, Options{MaxConcurrent: 1, QueueLimit: 4, WorkersPerJob: 2})
	input := circuitBytes(t, "voter")

	// Malformed and negative durations are rejected up front.
	for _, bad := range []string{"deadline=soon", "deadline=-5s"} {
		if _, resp := submit(t, srv.URL, bad, input); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// A short deadline on a long job surfaces as the distinct terminal
	// state, visible in both the status and the process metrics.
	st, resp := submit(t, srv.URL, "deadline=100ms&passes=5000&zero_gain=true&workers=2", input)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if st.DeadlineNs != (100 * time.Millisecond).Nanoseconds() {
		t.Fatalf("accepted deadline_ns = %d", st.DeadlineNs)
	}
	final := pollStatus(t, srv.URL, st.ID, 30*time.Second)
	if final.State != StateDeadlineExceeded {
		t.Fatalf("state = %s (err %q), want deadline_exceeded", final.State, final.Error)
	}
	var pm ProcessMetrics
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(mresp.Body).Decode(&pm)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if pm.Jobs.DeadlineExceeded != 1 {
		t.Fatalf("metrics deadline_exceeded = %d, want 1", pm.Jobs.DeadlineExceeded)
	}
}

func TestHTTPOverload503(t *testing.T) {
	s, srv := startDaemon(t, Options{MaxConcurrent: 1, QueueLimit: 4, MemSoftLimit: 1000, WatchdogInterval: time.Hour})
	s.observeMemory(2000)
	resp, err := http.Post(srv.URL+"/jobs", "application/octet-stream", bytes.NewReader(circuitBytes(t, "voter")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("memory-shed 503 is missing Retry-After")
	}
	var body struct {
		Error     string `json:"error"`
		HeapBytes int64  `json:"heap_bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error != "overloaded" || body.HeapBytes != 2000 {
		t.Fatalf("shed body: %+v", body)
	}
	// Recovery reopens admission; the shed episode shows in /metrics.
	s.observeMemory(100)
	if _, resp := submit(t, srv.URL, "", circuitBytes(t, "voter")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-recovery submit status %d", resp.StatusCode)
	}
	if m := s.Metrics().Memory; m.ShedEpisodes != 1 || m.ShedRejected != 1 || m.Recoveries != 1 {
		t.Fatalf("shed metrics: %+v", m)
	}
}

func TestHTTPResultLost410(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	j, err := s.Submit(fastRequest(t, "voter"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 60*time.Second)
	srv.Close()
	s.Drain(time.Second)

	s2, _, err := Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		srv2.Close()
		s2.Drain(0)
	})
	st := pollStatus(t, srv2.URL, j.ID, 10*time.Second)
	if st.State != StateDone {
		t.Fatalf("restored job: %s", st.State)
	}
	resp, err := http.Get(srv2.URL + "/jobs/" + j.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("restored result status = %d, want 410", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error != "result_lost" {
		t.Fatalf("error kind %q, want result_lost", body.Error)
	}
	// A lost result is worth retrying (resubmission recomputes it), but
	// not instantly: the reply must say when.
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("410 result_lost without Retry-After")
	}
}
