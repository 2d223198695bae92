package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"dacpara"
	"dacpara/internal/aig"
)

// DefaultMaxUploadBytes bounds a submission body when the caller does
// not override it: large enough for the paper's biggest benchmarks,
// small enough that an adversarial upload cannot exhaust memory.
const DefaultMaxUploadBytes = 256 << 20

// Handler returns the service's HTTP API:
//
//	POST   /jobs             submit a circuit (body: AIGER or BENCH; see query params)
//	GET    /jobs             list job statuses
//	GET    /jobs/{id}        one job's status
//	POST   /jobs/{id}/cancel cancel (also DELETE /jobs/{id})
//	GET    /jobs/{id}/result download the optimized circuit (AIGER binary, ?format=bench for BENCH)
//	GET    /jobs/{id}/metrics the run's dacpara-metrics/v1 snapshot
//	GET    /healthz          liveness (200 while the process is up, even when not admitting work)
//	GET    /readyz           readiness (503 while draining; see Ready)
//	GET    /metrics          process-level dacparad-process/v1 counters
//	POST   /cluster/*        worker-fleet RPCs, mounted only on a cluster coordinator
//
// Every load-shedding rejection (429 queue_full, 503 overloaded, 503
// draining) and the 410 result_lost reply carry a Retry-After header in
// seconds, so well-behaved clients back off a sensible amount without
// guessing.
//
// Submission query parameters: engine (abc|iccad18|dacpara|dac22|tcad23)
// or flow (a whole synthesis script, e.g. "b; rw; rf; rs; b" —
// mutually exclusive with engine), workers, k, passes, zero_gain,
// preserve_delay, max_cuts, max_structs, classes, preset (p1|p2), format
// (aiger|bench), verify, verify_budget, deadline (a Go duration such as
// 30s or 2m bounding the job's running time). Each maps onto
// one field of the job spec; see JobRequest and dacpara.Job. Any other
// parameter is a 400 (see submitParams).
func (s *Service) Handler() http.Handler {
	return s.handler(DefaultMaxUploadBytes)
}

// HandlerMaxUpload is Handler with a custom upload size bound.
func (s *Service) HandlerMaxUpload(maxBytes int64) http.Handler {
	return s.handler(maxBytes)
}

func (s *Service) handler(maxUpload int64) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness only: a draining or shedding process is still alive and
		// must not be restarted by its supervisor.
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if ready, reason := s.Ready(); !ready {
			setRetryAfter(w, retryAfterDraining)
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": reason})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		s.handleSubmit(w, r, maxUpload)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := s.Jobs()
		statuses := make([]JobStatus, 0, len(jobs))
		for _, j := range jobs {
			statuses = append(statuses, j.Status())
		}
		writeJSON(w, http.StatusOK, map[string]any{"jobs": statuses})
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, err := s.Job(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, "unknown_job", err.Error())
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	})
	cancel := func(w http.ResponseWriter, r *http.Request) {
		j, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, "unknown_job", err.Error())
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	}
	mux.HandleFunc("POST /jobs/{id}/cancel", cancel)
	mux.HandleFunc("DELETE /jobs/{id}", cancel)
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		j, err := s.Job(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, "unknown_job", err.Error())
			return
		}
		res := j.Result()
		if res == nil {
			if j.State() == StateDone {
				// A done job without result bytes was restored from the
				// journal after a restart: the record survived, the cached
				// circuit did not. Retry-After tells the client when a
				// resubmission of the original circuit is worth attempting
				// (the service is healthy; only these bytes are gone).
				setRetryAfter(w, retryAfterResultLost)
				writeError(w, http.StatusGone, "result_lost",
					fmt.Sprintf("job %s: %v", j.ID, ErrResultLost))
				return
			}
			writeError(w, http.StatusConflict, "not_done",
				fmt.Sprintf("job %s is %s; the result exists only in state %s", j.ID, j.State(), StateDone))
			return
		}
		if r.URL.Query().Get("format") == "bench" {
			net, derr := decodeAIGER(res.AIGER)
			if derr != nil {
				writeError(w, http.StatusInternalServerError, "encode", derr.Error())
				return
			}
			w.Header().Set("Content-Type", "text/plain")
			net.WriteBench(w)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(res.AIGER)))
		w.Write(res.AIGER)
	})
	mux.HandleFunc("GET /jobs/{id}/metrics", func(w http.ResponseWriter, r *http.Request) {
		j, err := s.Job(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, "unknown_job", err.Error())
			return
		}
		m := j.Metrics()
		if m == nil {
			writeError(w, http.StatusConflict, "no_metrics",
				fmt.Sprintf("job %s is %s; metrics appear when the run finishes", j.ID, j.State()))
			return
		}
		writeJSON(w, http.StatusOK, m)
	})
	if s.coord != nil {
		s.coord.RegisterRoutes(mux)
	}
	return mux
}

// Ready reports whether the service is admitting work; the reason names
// the gate when it is not. /readyz maps false to 503 so load balancers
// stop routing before drain (or shutdown) starts refusing submissions —
// the liveness probe stays green the whole time.
func (s *Service) Ready() (bool, string) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return false, "draining"
	}
	return true, "ready"
}

// The Retry-After advice, in seconds, for each backoff-worthy reply:
// a full queue clears in roughly a scheduler slot (seconds), a memory
// shed needs the heap to drop (longer), a drain means this process is
// going away (longer still, enough for DNS/load-balancer failover), and
// a lost result needs a resubmission round-trip by the caller.
const (
	retryAfterQueueFull  = 1
	retryAfterOverloaded = 5
	retryAfterDraining   = 10
	retryAfterResultLost = 30
	// retryAfterCap bounds every Retry-After this service emits; a
	// misconfigured constant can suggest patience, never a day of it.
	retryAfterCap = 300
)

// setRetryAfter sets a capped Retry-After header in whole seconds.
func setRetryAfter(w http.ResponseWriter, seconds int) {
	if seconds < 1 {
		seconds = 1
	}
	if seconds > retryAfterCap {
		seconds = retryAfterCap
	}
	w.Header().Set("Retry-After", strconv.Itoa(seconds))
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request, maxUpload int64) {
	req, err := parseSubmission(r, maxUpload)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	job, err := s.Submit(req)
	var full *QueueFullError
	var overloaded *OverloadedError
	switch {
	case errors.As(err, &overloaded):
		// Memory shedding: the watchdog saw the heap over the soft limit.
		// Distinct from queue_full so clients can tell "submit slower"
		// apart from "the machine is out of headroom".
		setRetryAfter(w, retryAfterOverloaded)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":      "overloaded",
			"message":    err.Error(),
			"heap_bytes": overloaded.HeapBytes,
			"soft_limit": overloaded.SoftLimit,
		})
		return
	case errors.As(err, &full):
		setRetryAfter(w, retryAfterQueueFull)
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":       "queue_full",
			"message":     err.Error(),
			"queue_limit": full.Limit,
		})
		return
	case errors.Is(err, ErrDraining):
		setRetryAfter(w, retryAfterDraining)
		writeError(w, http.StatusServiceUnavailable, "draining", err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

// submitParams is every query parameter a submission may carry. A key
// outside it is rejected, never ignored: a typo (pases=2) or a parameter
// of an older daemon (partition=4) must not run a different job than
// the one the client asked for.
var submitParams = []string{
	"engine", "flow", "preset", "workers", "k", "passes", "max_cuts",
	"max_structs", "classes", "zero_gain", "preserve_delay", "format",
	"verify", "verify_budget", "deadline",
}

// parseSubmission validates the query parameters and streams the body
// through the circuit parser. The query is parsed strictly: Query()
// silently drops parameters containing raw semicolons, which would turn
// a flow submission like ?flow=b;rw into a default engine job — a flow
// script's semicolons must arrive URL-encoded (%3B), and anything else
// is rejected loudly here.
func parseSubmission(r *http.Request, maxUpload int64) (JobRequest, error) {
	var req JobRequest
	q, err := url.ParseQuery(r.URL.RawQuery)
	if err != nil {
		return req, fmt.Errorf("parsing query (URL-encode semicolons in flow scripts as %%3B): %w", err)
	}
	var unknown []string
	for key := range q {
		if !slices.Contains(submitParams, key) {
			unknown = append(unknown, key)
		}
	}
	if len(unknown) > 0 {
		slices.Sort(unknown)
		return req, fmt.Errorf("unknown parameter %q (accepted: %s)", unknown, strings.Join(submitParams, ", "))
	}
	req.Engine = dacpara.Engine(q.Get("engine"))
	req.Flow = q.Get("flow")

	switch q.Get("preset") {
	case "":
	case "p1":
		req.Job = req.WithKnobs(dacpara.P1())
	case "p2":
		req.Job = req.WithKnobs(dacpara.P2())
	default:
		return req, fmt.Errorf("unknown preset %q (want p1 or p2)", q.Get("preset"))
	}
	// Ranges and exclusions (k, engine vs flow) are the spec's own to
	// check: Submit runs Job.Validate.
	for _, p := range []struct {
		name string
		dst  *int
	}{
		{"workers", &req.Workers},
		{"k", &req.K},
		{"passes", &req.Passes},
		{"max_cuts", &req.MaxCuts},
		{"max_structs", &req.MaxStructs},
		{"classes", &req.Classes},
	} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return req, fmt.Errorf("bad %s %q", p.name, v)
			}
			*p.dst = n
		}
	}
	for _, p := range []struct {
		name string
		dst  *bool
	}{
		{"zero_gain", &req.ZeroGain},
		{"preserve_delay", &req.PreserveDelay},
		{"verify", &req.Verify},
	} {
		if v := q.Get(p.name); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return req, fmt.Errorf("bad %s %q", p.name, v)
			}
			*p.dst = b
		}
	}
	if v := q.Get("verify_budget"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return req, fmt.Errorf("bad verify_budget %q", v)
		}
		req.VerifyBudget = n
	}
	if v := q.Get("deadline"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return req, fmt.Errorf("bad deadline %q (want a Go duration like 30s)", v)
		}
		req.DeadlineNs = int64(d)
	}

	body := http.MaxBytesReader(nil, r.Body, maxUpload)
	defer body.Close()
	var net *dacpara.Network
	switch q.Get("format") {
	case "", "aiger": // aig.Read sniffs ASCII vs binary itself
		net, err = aig.Read(body)
	case "bench":
		net, err = aig.ReadBench(body)
	default:
		return req, fmt.Errorf("unknown format %q (want aiger or bench)", q.Get("format"))
	}
	if err != nil {
		return req, fmt.Errorf("parsing circuit: %w", err)
	}
	req.Network = net
	return req, nil
}

// decodeAIGER parses a binary AIGER blob: a cached or recovered result,
// a worker upload.
func decodeAIGER(data []byte) (*dacpara.Network, error) {
	return aig.Read(bytes.NewReader(data))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, kind, msg string) {
	writeJSON(w, code, map[string]string{"error": kind, "message": msg})
}
