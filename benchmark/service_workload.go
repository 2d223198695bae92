package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dacpara/internal/aig"
	"dacpara/internal/cluster"
	"dacpara/internal/journal"
	"dacpara/internal/serve"
)

// pollEvery is how often a client asks for its job's status.
const pollEvery = 5 * time.Millisecond

// jobTimeout bounds one job; the mix's largest job takes well under a
// second, so hitting it means the service is stuck, and the job fails.
const jobTimeout = 60 * time.Second

// serviceWorkload is service_jobs: a durable in-process service behind a
// loopback HTTP server, driven by a closed loop of W clients — each
// sends its next job only when the previous one's result has arrived,
// because that is how a caller waiting for an optimized circuit behaves.
// An operation is one round of the job mix on a freshly booted service,
// so every round starts with the same empty journal and result cache and
// the repeats in the mix are the only cache hits.
type serviceWorkload struct {
	env
	jobs   []job
	golden []*aig.AIG // per job, the program's parse of its input
	svc    *service   // booted and idle, ready for the next round
	rounds int
	done   string // data directory of the last finished round, for replay
}

// service is one booted instance with its HTTP front.
type service struct {
	s      *serve.Service
	srv    *httptest.Server
	dir    string
	cancel context.CancelFunc // stops the cluster worker, if any
	worker sync.WaitGroup
}

func (w *serviceWorkload) boot(clustered bool) (*service, error) {
	w.rounds++
	dir := filepath.Join(w.scratch, fmt.Sprintf("svc-%d-%d", os.Getpid(), w.rounds))
	opts := serve.Options{DataDir: dir, MaxConcurrent: w.workers, WorkersPerJob: 1, QueueLimit: len(w.jobs)}
	if clustered {
		// Short polls, and one short lease per job: the probe measures
		// the extra hops of one healthy worker, and a job the cluster
		// path cannot finish (README, "Known failures") should cost the
		// probe two seconds, not three default leases.
		opts.Cluster = &cluster.Config{Lease: 2 * time.Second, Heartbeat: 400 * time.Millisecond,
			PollWait: 200 * time.Millisecond, MaxAttempts: 1}
	}
	s, _, err := serve.Open(opts)
	if err != nil {
		return nil, err
	}
	v := &service{s: s, srv: httptest.NewServer(s.Handler()), dir: dir, cancel: func() {}}
	if clustered {
		ctx, cancel := context.WithCancel(context.Background())
		v.cancel = cancel
		wk := cluster.NewWorker(cluster.WorkerOptions{Coordinator: v.srv.URL, ID: "bench-worker", RPCTimeout: 5 * time.Second})
		v.worker.Add(1)
		go func() {
			defer v.worker.Done()
			_ = wk.Run(ctx) // returns the context's error on cancel
		}()
		for deadline := time.Now().Add(10 * time.Second); s.Coordinator().LiveWorkers() < 1; {
			if time.Now().After(deadline) {
				v.stop()
				return nil, fmt.Errorf("cluster worker did not register")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return v, nil
}

// stop shuts the instance down and waits for everything it started.
func (v *service) stop() {
	v.cancel()
	v.worker.Wait()
	v.srv.Close()
	v.s.Drain(10 * time.Second)
}

func setupService(e env) (workload, error) {
	if err := buildLibrary(); err != nil {
		return nil, err
	}
	w := &serviceWorkload{env: e, jobs: genServiceJobs(e.z, e.seed)}
	inputs := make([]input, len(w.jobs))
	for i, j := range w.jobs {
		inputs[i] = j.input
	}
	var err error
	if w.golden, err = goldens(inputs); err != nil {
		return nil, err
	}
	w.svc, err = w.boot(false)
	return w, err
}

func (w *serviceWorkload) close() {
	if w.svc != nil {
		w.svc.stop()
		os.RemoveAll(w.svc.dir)
	}
	if w.done != "" {
		os.RemoveAll(w.done)
	}
}

// jobOutcome is what a client saw of one job.
type jobOutcome struct {
	result         []byte
	status         serve.JobStatus
	total          time.Duration // submit sent → result bytes received
	submit, fetch  time.Duration
	err            error
	client, number int
}

// runJob plays one job against a service: POST, poll, GET result.
func runJob(tr *tracer, op, lane int, client *http.Client, base string, j job) (o jobOutcome) {
	root := tr.begin("job", op, lane, -1)
	defer tr.end(root)
	t0 := time.Now()
	defer func() { o.total = time.Since(t0) }()

	get := func(path string) ([]byte, error) {
		resp, err := client.Get(base + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode/100 != 2 {
			return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
		}
		return body, nil
	}

	sp := tr.begin("serve.submit", op, lane, root)
	resp, err := client.Post(base+"/jobs?"+j.query, "application/octet-stream", bytes.NewReader(j.aiger))
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode/100 != 2 {
			err = fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(body))
		}
		if err == nil {
			err = json.Unmarshal(body, &o.status)
		}
	}
	tr.end(sp)
	o.submit = time.Since(t0)
	if err != nil {
		o.err = err
		return o
	}

	sp = tr.begin("serve.wait", op, lane, root)
	for !o.status.State.Terminal() && err == nil {
		if time.Since(t0) > jobTimeout {
			err = fmt.Errorf("job %s still %s after %s", o.status.ID, o.status.State, jobTimeout)
			break
		}
		time.Sleep(pollEvery)
		var body []byte
		if body, err = get("/jobs/" + o.status.ID); err == nil {
			err = json.Unmarshal(body, &o.status)
		}
	}
	tr.end(sp)
	if err == nil && o.status.State != serve.StateDone {
		err = fmt.Errorf("job %s ended %s: %s", o.status.ID, o.status.State, o.status.Error)
	}
	if err != nil {
		o.err = err
		return o
	}

	sp = tr.begin("serve.result", op, lane, root)
	tf := time.Now()
	o.result, o.err = get("/jobs/" + o.status.ID + "/result")
	o.fetch = time.Since(tf)
	tr.end(sp)
	return o
}

// round drives the first n jobs of the mix through a service with the
// given number of closed-loop clients and returns the outcomes in job
// order and the loop's wall time.
func (w *serviceWorkload) round(tr *tracer, opID int, v *service, n, clients int) ([]jobOutcome, time.Duration) {
	outcomes := make([]jobOutcome, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	client := v.srv.Client()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				// One request id per job: the round's number and the
				// job's position in the mix.
				outcomes[i] = runJob(tr, opID<<12|i, c, client, v.srv.URL, w.jobs[i])
			}
		}(c)
	}
	wg.Wait()
	return outcomes, time.Since(start)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (w *serviceWorkload) op(tr *tracer, opID int) opResult {
	v := w.svc
	outcomes, loop := w.round(tr, opID, v, len(w.jobs), w.workers)
	pm := v.s.Metrics()
	v.stop()
	if w.done != "" {
		os.RemoveAll(w.done)
	}
	w.done = v.dir

	res := opResult{section: loop.Seconds(), samples: make([]sample, len(outcomes))}
	for i, o := range outcomes {
		s := &res.samples[i]
		s.wall = o.total.Seconds()
		if o.err != nil {
			s.fail("job %d: %v", i, o.err)
			continue
		}
		in := w.jobs[i].input
		c := checkOutput(in, o.result, w.seed+int64(i), s)
		if c == nil {
			continue
		}
		s.andsIn, s.andsOut = len(in.ref.ands), len(c.ands)
		s.depthIn, s.depthOut = in.ref.depth(), c.depth()
		out, err := aig.Read(bytes.NewReader(o.result))
		if err != nil {
			s.fail("job %d: program cannot read its own result: %v", i, err)
			continue
		}
		simCheck(tr, opID<<12|i, in.name, w.golden[i], out, s)
		if w.jobs[i].kind == jobRepeat && !o.status.CacheHit {
			s.fail("job %d: a byte-identical resubmission was not served from the result cache", i)
		}
		if tr == nil {
			continue
		}
		tr.record("serve.submit_ms_p50", ms(o.submit))
		tr.record("serve.result_ms_p50", ms(o.fetch))
		if st := o.status; st.StartedAt != nil && st.FinishedAt != nil {
			tr.record("serve.queue_wait_ms_p50", ms(st.StartedAt.Sub(st.SubmittedAt)))
			if !st.CacheHit {
				tr.record("serve.run_ms_p50", ms(st.FinishedAt.Sub(*st.StartedAt)))
			}
		}
		if o.status.CacheHit {
			tr.record("serve.cache_hit_ms_p50", ms(o.total))
		}
	}
	tr.record("serve.cache_hits", float64(pm.Cache.Hits))
	tr.record("serve.rejected", float64(pm.Jobs.Rejected))
	tr.record("journal.records", float64(pm.Durability.JournalRecords))

	// Boot the next round's service now, outside every timed section.
	next, err := w.boot(false)
	if err != nil {
		res.samples[0].fail("booting the next service: %v", err)
	}
	w.svc = next
	return res
}

// clusterJobs is how many jobs of the mix the cluster probe replays.
const clusterJobs = 24

// journalAppends is how many records the journal probe appends.
const journalAppends = 500

func (w *serviceWorkload) probes(tr *tracer, firstOp int) {
	op := probeServiceInputs(tr, w.jobs, firstOp)

	// journal: append latency beside the service's own data, and replay
	// of the last finished round's directory by a fresh serve.Open.
	if log, _, _, err := journal.Open(filepath.Join(w.scratch, fmt.Sprintf("probe-%d.journal", os.Getpid()))); err == nil {
		for i := 0; i < min(journalAppends, 25*len(w.jobs)); i++ {
			t0 := time.Now()
			err := log.Append(journal.Record{Op: journal.OpSubmitted, Job: fmt.Sprintf("j%08d", i), TimeNs: t0.UnixNano(),
				Req: &journal.Request{Engine: "dacpara", Workers: 1, InputDigest: "probe"}})
			if err == nil {
				tr.record("journal.append_us_p50", float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
		log.Close()
		os.Remove(filepath.Join(w.scratch, fmt.Sprintf("probe-%d.journal", os.Getpid())))
	}
	if w.done != "" {
		sp := tr.begin("journal.replay", op, 1, -1)
		s, _, err := serve.Open(serve.Options{DataDir: w.done, MaxConcurrent: 1, WorkersPerJob: 1})
		tr.end(sp)
		if err == nil {
			s.Drain(10 * time.Second)
		}
		op++
	}

	// cluster: the head of the mix, one client, first on a local service
	// and then on a coordinator with one loopback worker; the difference
	// of the medians is what the extra hops cost a job. Jobs the cluster
	// path fails are counted, not timed.
	n := min(clusterJobs, len(w.jobs))
	p50 := func(clustered bool) (float64, int, *cluster.Metrics) {
		v, err := w.boot(clustered)
		if err != nil {
			return 0, 0, nil
		}
		outcomes, _ := w.round(nil, op, v, n, 1)
		cm := v.s.Metrics().Cluster
		v.stop()
		os.RemoveAll(v.dir)
		var lat []float64
		failed := 0
		for _, o := range outcomes {
			if o.err == nil {
				lat = append(lat, ms(o.total))
			} else {
				failed++
			}
		}
		return median(lat), failed, cm
	}
	local, _, _ := p50(false)
	remote, failed, cm := p50(true)
	if cm != nil {
		tr.record("cluster.job_ms_p50", remote)
		tr.record("cluster.overhead_ms_p50", remote-local)
		tr.record("cluster.failed_jobs", float64(failed))
		tr.record("cluster.leases_granted", float64(cm.LeasesGranted))
		tr.record("cluster.requeued", float64(cm.Requeued))
	}
}
