// Command dacpara rewrites an AIGER circuit with any of the implemented
// engines and reports area/delay/runtime, optionally verifying the result
// against the input with the built-in equivalence checker.
//
// Usage:
//
//	dacpara -in circuit.aig -out optimized.aig -engine dacpara -threads 8
//	dacpara -gen mult -scale small -engine abc -verify
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"dacpara"
)

func main() {
	var (
		in        = flag.String("in", "", "input AIGER file (ASCII or binary)")
		gen       = flag.String("gen", "", "generate a named benchmark instead of reading a file (see -list)")
		scale     = flag.String("scale", "small", "generated benchmark scale: tiny, small, full")
		outPath   = flag.String("out", "", "output AIGER file (optional)")
		engine    = flag.String("engine", "dacpara", "engine: abc, iccad18, dacpara, dac22, tcad23")
		threads   = flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
		passes    = flag.Int("passes", 1, "rewriting passes")
		cutK      = flag.Int("k", 0, "rewriting cut width, 4..6 (0 = classic 4-input; 5/6 synthesize their structure forests on first use)")
		p1        = flag.Bool("p1", false, "use the paper's P1 configuration (8 cuts, 5 structures, 2 passes)")
		p2        = flag.Bool("p2", false, "use the paper's P2 configuration (unlimited, 1 pass)")
		zero      = flag.Bool("z", false, "also apply zero-gain rewrites")
		level     = flag.Bool("l", false, "preserve levels: reject depth-increasing rewrites")
		guard     = flag.Bool("guard", false, "guarded execution: verify each engine run on a scratch copy and degrade dacpara -> iccad18 -> abc on failure")
		deadln    = flag.Duration("guard-deadline", 0, "with -guard: per-attempt wall-clock deadline (0 = none)")
		verify    = flag.Bool("verify", false, "equivalence-check the result against the input")
		simOnly   = flag.Bool("sim-only", false, "verification by simulation only (for large circuits)")
		lut       = flag.Int("lut", 0, "after optimizing, also map into k-input LUTs and report mapped area/depth")
		script    = flag.String("script", "", "run an ABC-style flow instead of one engine, e.g. \"b; rw; rf -p; rs -p -w=8; b\" (per-step flags: -z zero-gain, -p parallel refactor/resub, -w=N workers; use 'resyn2' for the classic script)")
		list      = flag.Bool("list", false, "list generatable benchmarks and exit")
		stats     = flag.Bool("stats", false, "collect engine metrics and print a per-phase summary")
		statsJSON = flag.String("stats-json", "", "collect engine metrics and write the snapshot(s) as JSON to this file ('-' for stdout)")
		traceConf = flag.Int("trace-conflicts", 0, "with -stats/-stats-json: sample up to N aborted activities per worker into the snapshot")
		pprofPfx  = flag.String("pprof", "", "write CPU and heap profiles around the run to <prefix>.cpu.pprof and <prefix>.heap.pprof")
	)
	flag.Parse()

	if *list {
		for _, n := range dacpara.BenchmarkNames(parseScale(*scale)) {
			fmt.Println(n)
		}
		return
	}

	var net *dacpara.Network
	var err error
	switch {
	case *gen != "":
		net, err = dacpara.Generate(*gen, parseScale(*scale))
	case *in != "":
		net, err = dacpara.ReadAIGER(*in)
	default:
		fmt.Fprintln(os.Stderr, "dacpara: need -in or -gen (see -h)")
		os.Exit(2)
	}
	fatal(err)

	cfg := dacpara.Config{Workers: *threads, Passes: *passes, ZeroGain: *zero, PreserveDelay: *level}
	if *p1 {
		cfg = dacpara.P1()
		cfg.Workers = *threads
	}
	if *p2 {
		cfg = dacpara.P2()
		cfg.Workers = *threads
	}
	cfg.K = *cutK
	// One job from the flags; -sim-only replaces the job's own SAT-backed
	// check with a simulation screen after the run.
	job := dacpara.Job{
		Engine:          dacpara.Engine(*engine),
		Guard:           *guard,
		GuardDeadlineNs: int64(*deadln),
		Verify:          *verify && !*simOnly,
	}.WithKnobs(cfg)
	if flow := *script; flow != "" {
		switch flow {
		case "resyn2":
			flow = dacpara.Resyn2
		case "resyn2rs":
			flow = dacpara.Resyn2rs
		}
		job.Engine, job.Flow = "", flow
	}
	if err := job.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var hooks dacpara.Hooks
	if *stats || *statsJSON != "" {
		hooks.Attach.Metrics = dacpara.NewMetrics()
		hooks.Attach.Metrics.TraceConflicts(*traceConf)
	}

	if *pprofPfx != "" {
		f, err := os.Create(*pprofPfx + ".cpu.pprof")
		fatal(err)
		fatal(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			h, err := os.Create(*pprofPfx + ".heap.pprof")
			fatal(err)
			defer h.Close()
			fatal(pprof.WriteHeapProfile(h))
		}()
	}

	var golden *dacpara.Network
	if *verify && *simOnly {
		golden = net.Clone()
	}

	before := net.Stats()
	out, err := dacpara.Run(context.Background(), net, job, hooks)
	for _, rep := range out.Reports {
		fmt.Println(rep)
	}
	if errors.Is(err, dacpara.ErrNotEquivalent) {
		fmt.Fprintln(os.Stderr, "dacpara: EQUIVALENCE CHECK FAILED")
		os.Exit(1)
	}
	fatal(err)
	net = out.Net
	after := net.Stats()

	var snapshots []*dacpara.MetricsSnapshot
	for _, r := range out.Steps {
		fmt.Printf("%-16s area %7d -> %7d  delay %5d -> %5d  %8.3fs\n",
			r.Engine, r.InitialAnds, r.FinalAnds, r.InitialDelay, r.FinalDelay,
			r.Duration.Seconds())
		if r.Metrics != nil {
			snapshots = append(snapshots, r.Metrics)
		}
	}
	if len(out.Steps) > 0 {
		fmt.Printf("flow total: area %d -> %d, delay %d -> %d\n",
			before.Ands, after.Ands, before.Delay, after.Delay)
	} else {
		res := out.Result
		fmt.Printf("engine=%s threads=%d time=%.3fs\n", res.Engine, res.Threads, res.Duration.Seconds())
		fmt.Printf("area  %d -> %d (reduction %d, %.2f%%)\n", before.Ands, after.Ands,
			res.AreaReduction(), 100*float64(res.AreaReduction())/float64(max(before.Ands, 1)))
		fmt.Printf("delay %d -> %d\n", before.Delay, after.Delay)
		fmt.Printf("replacements=%d attempts=%d stale=%d commits=%d aborts=%d\n",
			res.Replacements, res.Attempts, res.Stale, res.Commits, res.Aborts)
		if res.Metrics != nil {
			snapshots = append(snapshots, res.Metrics)
		}
	}

	if *stats {
		for _, s := range snapshots {
			s.Format(os.Stdout)
		}
	}
	if *statsJSON != "" {
		fatal(writeSnapshots(*statsJSON, snapshots))
	}

	if *lut > 0 {
		m, err := dacpara.MapLUT(net, *lut)
		fatal(err)
		fmt.Printf("mapped: %d LUT%d, depth %d\n", m.Area, *lut, m.Depth)
	}

	if golden != nil {
		eq, err := dacpara.EquivalentFast(golden, net)
		fatal(err)
		if !eq {
			fmt.Fprintln(os.Stderr, "dacpara: EQUIVALENCE CHECK FAILED")
			os.Exit(1)
		}
	}
	if *verify {
		fmt.Println("equivalence check passed")
	}

	if *outPath != "" {
		fatal(net.WriteFile(*outPath))
	}
}

func parseScale(s string) dacpara.Scale {
	switch s {
	case "tiny":
		return dacpara.ScaleTiny
	case "full":
		return dacpara.ScaleFull
	default:
		return dacpara.ScaleSmall
	}
}

// writeSnapshots emits the collected snapshots as JSON: one object for a
// single-engine run, an array for a multi-step flow.
func writeSnapshots(path string, snapshots []*dacpara.MetricsSnapshot) error {
	var payload any
	if len(snapshots) == 1 {
		payload = snapshots[0]
	} else {
		payload = snapshots
	}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dacpara:", err)
		os.Exit(1)
	}
}
