// Command benchmark is the repository's benchmark: four workloads, the
// end-to-end metrics of a timed run and the per-layer metrics of a
// separate traced run, as BENCHMARK.json at the repository root declares
// them. README.md in this directory explains the choices.
//
//	bash benchmark/run.sh --workload mtm_wide --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload mtm_wide --seed 1 --seconds 20 --trace 1 -out runs.jsonl
//	bash benchmark/run.sh -compare before.jsonl after.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dacpara"
)

// spec is BENCHMARK.json: the one place metric names, units, directions
// and bounds are written down. The harness prints exactly the metrics it
// names and -compare judges by its bounds.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specEntry  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// The benchmark runs from the repository root, where run.sh puts it: it
// reads the declaration there and writes only under its own directory —
// traces, and temporary service data in a tmp subdirectory.
const (
	specPath = "BENCHMARK.json"
	outDir   = "benchmark/out"
)

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// workloadSpec is how a workload is set up, and whether its operations
// keep one processor busy whatever W is, which is then how many the
// calibration runs on.
type workloadSpec struct {
	setup  func(env) (workload, error)
	serial bool
}

var workloads = map[string]workloadSpec{
	"mtm_wide":      {setup: func(e env) (workload, error) { return setupRewrite(e, genMtMWide, dacpara.P2()) }},
	"arith_deep":    {setup: func(e env) (workload, error) { return setupRewrite(e, genArithDeep, dacpara.Config{}) }},
	"flow_verified": {setup: setupFlow, serial: true},
	"service_jobs":  {setup: setupService},
}

// metricValue is one reported metric. Quartiles and the sample count sit
// beside every median that has them.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// record is one run as -out appends it and -compare reads it.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     int                    `json:"trace"`
	Seconds   float64                `json:"seconds"`
	W         int                    `json:"w"`
	Quick     bool                   `json:"quick,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Speed is the box's speed during the timed operations, and
	// SetupSpeed during the set-ups, as a share of the calibration's
	// reference speed (calibrate.go). Every time the timed run reports
	// is the seconds it measured times this; divide to get them back.
	Speed      float64 `json:"speed,omitempty"`
	SetupSpeed float64 `json:"setup_speed,omitempty"`
	// PeakRSSMB is the process's resident-set high-water mark (VmHWM). It
	// is a maximum, and moved by ±10 % between identical runs, so the
	// bounded metric is rss_mb, the median over operations.
	PeakRSSMB float64 `json:"peak_rss_mb,omitempty"`
	// Tail is the highest percentile of the operation times that still
	// has ten samples beyond it, which depends on how many operations the
	// window held; the bounded metric wall_p90_s is fixed instead.
	Tail *tail `json:"tail,omitempty"`
	// SelfTime and Coverage come from the traced run: time per span name
	// net of child spans, and the share of operation time that child
	// spans account for.
	SelfTime  []selfRow `json:"self_time,omitempty"`
	Coverage  float64   `json:"coverage,omitempty"`
	TraceFile string    `json:"trace_file,omitempty"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim any `json:"claim"`
}

type tail struct {
	Percentile int     `json:"percentile"`
	Seconds    float64 `json:"seconds"`
	N          int     `json:"n"`
}

// times scales a time by the box's speed.
func (m metricValue) times(speed float64) metricValue {
	m.Value *= speed
	m.Q1 *= speed
	m.Q3 *= speed
	return m
}

// distribution is a median with its quartiles and sample count; report
// fills in the unit BENCHMARK.json declares.
func distribution(xs []float64) metricValue {
	q1, q3 := quartiles(xs)
	return metricValue{Value: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

// statusMB reads one memory line ("VmRSS", "VmHWM") of /proc/self/status.
func statusMB(key string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// tally folds operation results into the attempted/failed counts.
type tally struct {
	samples  []sample
	section  float64
	failed   int
	failures []string
}

func (t *tally) add(r opResult) {
	t.samples = append(t.samples, r.samples...)
	t.section += r.section
	for _, s := range r.samples {
		if len(s.errs) > 0 {
			t.failed++
			if len(t.failures) < 20 {
				t.failures = append(t.failures, strings.Join(s.errs, "; "))
			}
		}
	}
}

func (t *tally) walls() []float64 {
	out := make([]float64, len(t.samples))
	for i, s := range t.samples {
		out[i] = s.wall
	}
	return out
}

// setupReps is how often the timed run sets the workload up; setup_s is
// the median, so the first, cold one does not decide it.
const setupReps = 9

// minOps is the least number of operations a measuring loop runs however
// short its window.
const minOps = 3

// timedRun measures the end-to-end metrics: no tracer, no collector.
func timedRun(name string, e env, seconds float64, quick bool) (*record, error) {
	reps := setupReps
	if quick {
		reps = 1
	}
	lanes := e.workers
	if workloads[name].serial {
		lanes = 1
	}
	cal, err := newCalibrator(lanes, quick)
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	defer cal.close()
	var w workload
	var setupS []float64
	cal.run()
	for i := 0; i < reps; i++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		if w, err = workloads[name].setup(e); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		cal.follow(setupS[i])
	}
	defer w.close()
	setupSpeed := cal.take()

	var warm, t tally
	var rss []float64
	warm.add(w.op(nil, 0)) // untimed warm-up, still checked
	cal.run()
	start := time.Now()
	for op := 1; op <= minOps || time.Since(start).Seconds() < seconds; op++ {
		// Every operation starts from a collected heap, as testing.B
		// starts a benchmark: the resident set after it then depends on
		// the operation, not on where the previous one left the
		// collector (its spread over identical runs fell from 8 to 5 %).
		runtime.GC()
		r := w.op(nil, op)
		t.add(r)
		rss = append(rss, statusMB("VmRSS")-cal.megabytes())
		cal.follow(r.section)
	}
	speed := cal.take()

	var andsIn, andsOut, depthIn, depthOut float64
	for _, s := range t.samples {
		andsIn += float64(s.andsIn)
		andsOut += float64(s.andsOut)
		depthIn += float64(s.depthIn)
		depthOut += float64(s.depthOut)
	}
	n := float64(len(t.samples))
	walls := t.walls()
	rec := &record{
		Workload: name, Seed: e.seed, Seconds: seconds, W: e.workers, Quick: quick,
		Attempted: len(t.samples) + len(warm.samples),
		Failed:    t.failed + warm.failed,
		Failures:  append(warm.failures, t.failures...),
		Metrics: map[string]metricValue{
			"setup_s":            distribution(setupS).times(setupSpeed),
			"wall_s":             distribution(walls).times(speed),
			"wall_p90_s":         {Value: quantile(walls, 0.9) * speed, N: len(walls)},
			"ops_per_s":          {Value: n / (t.section * speed), N: len(walls)},
			"area_reduction_pct": {Value: 100 * (andsIn - andsOut) / andsIn},
			"depth_out_pct":      {Value: 100 * depthOut / depthIn},
			"rss_mb":             distribution(rss),
		},
	}
	rec.Speed, rec.SetupSpeed = speed, setupSpeed
	rec.PeakRSSMB = statusMB("VmHWM") - cal.megabytes()
	if p := tailPercentile(len(walls)); p > 0 {
		rec.Tail = &tail{Percentile: p, Seconds: quantile(walls, float64(p)/100) * speed, N: len(walls)}
	}
	rec.Metrics["ok_share"] = metricValue{Value: 1 - float64(rec.Failed)/float64(rec.Attempted)}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// tracedRun measures the per-layer metrics: an untraced reference phase,
// the same operations under spans and a collector, then the layer
// probes. The difference between the two phases is the tracing overhead.
func tracedRun(name string, e env, seconds float64, quick bool) (*record, error) {
	w, err := workloads[name].setup(e)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer w.close()

	var all, ref, traced tally
	all.add(w.op(nil, 0))
	op := 1
	phase := func(t *tally, tr *tracer, budget float64) {
		start := time.Now()
		for n := 0; n < minOps || time.Since(start).Seconds() < budget; n++ {
			r := w.op(tr, op)
			t.add(r)
			all.add(r)
			op++
		}
	}
	phase(&ref, nil, 0.3*seconds)
	tr := newTracer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	phase(&traced, tr, 0.4*seconds)
	runtime.ReadMemStats(&after)
	w.probes(tr, op)

	ops := float64(len(traced.samples))
	tr.record("metrics.overhead_pct", 100*(median(traced.walls())/median(ref.walls())-1))
	tr.record("runtime.alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/ops)
	tr.record("runtime.allocs_per_op", float64(after.Mallocs-before.Mallocs)/ops)
	tr.record("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	tr.record("runtime.num_gc", float64(after.NumGC-before.NumGC))
	if serial := tr.perOp("rewrite.serial_wall"); len(serial) > 0 {
		if par := tr.perOp("core.rewrite"); len(par) > 0 {
			tr.record("core.speedup_vs_serial", median(serial)/median(par))
		}
	}

	rec := &record{
		Workload: name, Seed: e.seed, Trace: 1, Seconds: seconds, W: e.workers, Quick: quick,
		Attempted: len(all.samples), Failed: all.failed, Failures: all.failures,
		Correct: all.failed == 0,
		Metrics: tr.candidates(),
	}
	rec.SelfTime, rec.Coverage = tr.selfTimes()
	rec.TraceFile = filepath.Join(outDir, name+".trace.json")
	if err := tr.writeChrome(rec.TraceFile); err != nil {
		return nil, err
	}
	return rec, nil
}

// report prints every metric the spec names for this kind of run, by
// name with its unit, and then the one-line JSON result the driver
// reads. A metric the spec names that the run did not measure is an
// error for an end-to-end metric and reads 0 for a layer the workload
// never enters.
func report(out io.Writer, sp *spec, rec *record) error {
	want := sp.EndToEnd
	if rec.Trace == 1 {
		want = sp.PerLayer
	}
	kept := map[string]metricValue{}
	line := map[string]map[string]any{}
	fmt.Fprintf(out, "workload %s seed %d W %d trace %d seconds %g\n", rec.Workload, rec.Seed, rec.W, rec.Trace, rec.Seconds)
	for _, m := range want {
		v, ok := rec.Metrics[m.Name]
		if !ok && rec.Trace == 0 {
			return fmt.Errorf("BENCHMARK.json names end-to-end metric %q, which the run did not measure", m.Name)
		}
		v.Unit = m.Unit
		kept[m.Name] = v
		line[m.Name] = map[string]any{"value": v.Value, "unit": v.Unit}
		fmt.Fprintf(out, "%-28s %14.6g %-8s", m.Name, v.Value, v.Unit)
		if v.Q3 != 0 {
			fmt.Fprintf(out, " q1 %.6g q3 %.6g", v.Q1, v.Q3)
		}
		if v.N > 0 {
			fmt.Fprintf(out, " n %d", v.N)
		}
		fmt.Fprintln(out)
	}
	rec.Metrics = kept
	if rec.Speed > 0 {
		fmt.Fprintf(out, "box speed %.3f of the reference during operations, %.3f during set-ups; times are seconds at the reference speed\n", rec.Speed, rec.SetupSpeed)
	}
	if rec.PeakRSSMB > 0 {
		fmt.Fprintf(out, "peak resident set (VmHWM) %.1f MB\n", rec.PeakRSSMB)
	}
	if rec.Tail != nil {
		fmt.Fprintf(out, "tail: p%d of wall is %.6g s (n %d, ten samples beyond)\n", rec.Tail.Percentile, rec.Tail.Seconds, rec.Tail.N)
	}
	if rec.Trace == 1 {
		fmt.Fprintf(out, "self time (spans cover %.1f%% of operation time), trace in %s\n", 100*rec.Coverage, rec.TraceFile)
		for _, r := range rec.SelfTime {
			fmt.Fprintf(out, "  %-24s calls %6d total %10.4f s self %10.4f s\n", r.Name, r.Calls, r.TotalS, r.SelfS)
		}
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(out, "FAILED: %s\n", f)
	}
	final, err := json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": line,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", final)
	return err
}

// appendRecord appends the run to a JSON-lines result file.
func appendRecord(path string, rec *record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: mtm_wide, arith_deep, flow_verified or service_jobs")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 0, "how long to measure (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	quick := fs.Bool("quick", false, "tiny inputs and one setup, for the smoke test; the numbers mean nothing")
	out := fs.String("out", "", "append the run's full record to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(stdout, stderr, sp, fs.Arg(0), fs.Arg(1))
	}
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	e := env{z: fullSizes, seed: *seed, workers: min(runtime.GOMAXPROCS(0), 4), scratch: filepath.Join(outDir, "tmp")}
	if *quick {
		e.z = quickSizes
	}
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	var rec *record
	if *trace == 1 {
		rec, err = tracedRun(*name, e, *seconds, *quick)
	} else {
		rec, err = timedRun(*name, e, *seconds, *quick)
	}
	if err == nil {
		err = report(stdout, sp, rec)
	}
	if err == nil && *out != "" {
		err = appendRecord(*out, rec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
