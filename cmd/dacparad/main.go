// Command dacparad is the DACPara optimization daemon: a long-running
// HTTP service that accepts AIGER circuit uploads, schedules
// rewriting jobs over a bounded queue with admission control, serves
// repeated submissions from a structural-hash-keyed result cache, and
// drains gracefully on SIGTERM. With -data-dir it is crash-safe: every
// job is journaled to a write-ahead log, multi-step flows checkpoint at
// step boundaries, and a restart replays the journal and resumes
// interrupted work.
//
// With -role it scales out to a fault-tolerant cluster: a coordinator
// owns admission, the journal and the result cache, and hands jobs to
// workers under time-bounded leases; workers pull work over HTTP,
// heartbeat while running, upload per-step flow checkpoints, and stream
// results back. A worker that stops heartbeating loses its lease and
// its job resumes from the last uploaded checkpoint on another worker;
// with zero live workers the coordinator runs jobs locally.
//
// Usage:
//
//	dacparad -addr :8080 -max-jobs 8 -queue 64
//	dacparad -addr :8080 -data-dir /var/lib/dacparad -max-rss 4096 -default-deadline 10m
//	dacparad -role coordinator -addr :8080 -data-dir /var/lib/dacparad -lease 15s
//	dacparad -role worker -join http://coord:8080 -worker-id w1
//
//	curl -X POST --data-binary @circuit.aig 'localhost:8080/jobs?engine=dacpara&workers=4'
//	curl localhost:8080/jobs/j00000001
//	curl localhost:8080/jobs/j00000001/metrics
//	curl -o optimized.aig localhost:8080/jobs/j00000001/result
//	curl -X POST localhost:8080/jobs/j00000001/cancel
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"dacpara/internal/cluster"
	"dacpara/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address (coordinator/standalone roles)")
		queue     = flag.Int("queue", 64, "job queue limit (submissions beyond it get 429)")
		maxJobs   = flag.Int("max-jobs", 8, "engine jobs running concurrently")
		jobWork   = flag.Int("job-workers", 0, "per-job worker budget (0 = NumCPU/max-jobs, min 1)")
		cacheN    = flag.Int("cache-entries", 256, "result cache entry bound")
		cacheMB   = flag.Int64("cache-mb", 256, "result cache size bound in MiB")
		uploadMB  = flag.Int64("max-upload-mb", 256, "submission body size bound in MiB")
		drainGrac = flag.Duration("drain-grace", 30*time.Second, "on SIGTERM: how long running jobs may finish before being cancelled")
		dataDir   = flag.String("data-dir", "", "durable data directory (job journal + checkpoints); empty = in-memory only")
		maxRSS    = flag.Int64("max-rss", 0, "heap high-water mark in MiB: above 3/4 of it new submissions get 503, above it the largest running job is cancelled (0 = no memory watchdog)")
		deadline  = flag.Duration("default-deadline", 0, "default per-job wall-clock deadline for submissions that set none (0 = unbounded)")

		role      = flag.String("role", "standalone", "process role: standalone, coordinator (accept workers), or worker (join a coordinator)")
		join      = flag.String("join", "", "coordinator base URL to join (worker role), e.g. http://coord:8080")
		workerID  = flag.String("worker-id", "", "stable worker identity (worker role; default: the hostname + pid)")
		lease     = flag.Duration("lease", 15*time.Second, "coordinator: how long a worker may go silent before its lease expires and the job fails over")
		heartbeat = flag.Duration("heartbeat", 0, "heartbeat cadence (coordinator advertises it; worker override). 0 = lease/3")
		attempts  = flag.Int("attempts", 3, "coordinator: lease budget per job before it is terminally failed")

		chaosSpec = flag.String("chaos-plan", "", "deterministic fault-injection plan, JSON literal or @file (needs a binary built with -tags chaos); same seed, same faults")
	)
	flag.Parse()

	switch *role {
	case "worker":
		os.Exit(runWorker(*join, *workerID, *heartbeat, *chaosSpec))
	case "standalone", "coordinator":
	default:
		fmt.Fprintf(os.Stderr, "dacparad: unknown -role %q (want standalone, coordinator or worker)\n", *role)
		os.Exit(2)
	}

	opts := serve.Options{
		QueueLimit:      *queue,
		MaxConcurrent:   *maxJobs,
		WorkersPerJob:   *jobWork,
		CacheEntries:    *cacheN,
		CacheBytes:      *cacheMB << 20,
		DataDir:         *dataDir,
		DefaultDeadline: *deadline,
		MemSoftLimit:    (*maxRSS << 20) * 3 / 4,
		MemHardLimit:    *maxRSS << 20,
	}
	if *role == "coordinator" {
		opts.Cluster = &cluster.Config{
			Lease:       *lease,
			Heartbeat:   *heartbeat,
			MaxAttempts: *attempts,
		}
	}

	// The listener comes up before journal replay finishes, behind a
	// booting handler: /healthz answers 200 (the process is alive) and
	// everything else 503 "booting", so supervisors never kill a replaying
	// process and load balancers never route to one. Once serve.Open
	// returns, the real handler is swapped in atomically.
	var handler atomic.Value // of http.Handler
	handler.Store(bootingHandler())
	srv := &http.Server{
		Addr: *addr,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handler.Load().(http.Handler).ServeHTTP(w, r)
		}),
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	svc, rec, err := serve.Open(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dacparad: opening data dir:", err)
		os.Exit(1)
	}
	if rec != nil && (rec.Replayed > 0 || rec.TruncatedBytes > 0) {
		fmt.Printf("dacparad: recovered %s: %d journal records (%d torn bytes dropped), %d terminal jobs restored, %d requeued (%d from checkpoints), %d lost\n",
			*dataDir, rec.Replayed, rec.TruncatedBytes, len(rec.Restored), len(rec.Requeued), len(rec.Resumed), len(rec.Lost))
	}
	live, err := chaosWrapHandler(*chaosSpec, svc.HandlerMaxUpload(*uploadMB<<20))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dacparad:", err)
		os.Exit(2)
	}
	handler.Store(live)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	sopts := svc.Options()
	fmt.Printf("dacparad: %s listening on %s (max-jobs=%d workers-per-job=%d queue=%d)\n",
		*role, *addr, sopts.MaxConcurrent, sopts.WorkersPerJob, sopts.QueueLimit)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "dacparad:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: flip /readyz to not-ready first (load balancers
	// stop routing), then stop accepting connections, stop admitting
	// jobs, let running jobs finish within the grace period, cancel
	// stragglers at their next cancellation point, then exit.
	fmt.Println("dacparad: draining (no new jobs; running jobs get", *drainGrac, "to finish)")
	handler.Store(drainingHandler(live))
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainGrac+10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "dacparad: shutdown:", err)
	}
	svc.Drain(*drainGrac)
	fmt.Println("dacparad: drained, bye")
}

// bootingHandler serves the boot window between listener-up and journal
// replay done: alive, not ready.
func bootingHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"booting"}`)
	})
	return mux
}

// drainingHandler wraps the live handler but pins /readyz to 503, so
// the not-ready signal is visible the instant shutdown begins rather
// than when the service's drain state catches up.
func drainingHandler(live http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "10")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
	})
	mux.Handle("/", live)
	return mux
}

// runWorker is the worker role: join the coordinator and pull work
// until SIGTERM. The worker keeps no state worth draining — on signal
// the in-flight job is abandoned and its lease fails it over.
func runWorker(join, id string, heartbeat time.Duration, chaosSpec string) int {
	if join == "" {
		fmt.Fprintln(os.Stderr, "dacparad: -role worker requires -join <coordinator URL>")
		return 2
	}
	if id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	client, err := chaosWorkerClient(chaosSpec, id)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dacparad:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	w := cluster.NewWorker(cluster.WorkerOptions{
		Coordinator: join,
		ID:          id,
		Heartbeat:   heartbeat,
		Client:      client,
	})
	fmt.Printf("dacparad: worker %s joining %s\n", id, join)
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "dacparad: worker:", err)
		return 1
	}
	fmt.Println("dacparad: worker stopped")
	return 0
}
