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
	"dacpara/internal/aig"
	"dacpara/internal/cec"
	"dacpara/internal/lutmap"
)

// cli is the command line: every flag, bound to a flag set.
type cli struct {
	fs                                                *flag.FlagSet
	in, gen, scale, outPath, engine, script           *string
	statsJSON, pprofPfx                               *string
	threads, passes, cutK, lut, traceConf             *int
	p1, p2, zero, level, verify, simOnly, list, stats *bool
}

func newCLI(fs *flag.FlagSet) *cli {
	return &cli{
		fs:        fs,
		in:        fs.String("in", "", "input AIGER file (ASCII or binary)"),
		gen:       fs.String("gen", "", "generate a named benchmark instead of reading a file (see -list)"),
		scale:     fs.String("scale", "small", "generated benchmark scale: tiny, small, full"),
		outPath:   fs.String("out", "", "output AIGER file, binary for .aig, ASCII for .aag (optional)"),
		engine:    fs.String("engine", "dacpara", "engine: abc, iccad18, dacpara, dac22, tcad23"),
		threads:   fs.Int("threads", 0, "worker threads (0 = GOMAXPROCS)"),
		passes:    fs.Int("passes", 0, "rewriting passes (0 = one, or the preset's)"),
		cutK:      fs.Int("k", 0, "rewriting cut width, 4..6 (0 = classic 4-input; 5/6 synthesize their structure forests on first use)"),
		p1:        fs.Bool("p1", false, "start from the paper's P1 configuration (8 cuts, 5 structures, 2 passes); knob flags override it"),
		p2:        fs.Bool("p2", false, "start from the paper's P2 configuration (unlimited, 1 pass); knob flags override it"),
		zero:      fs.Bool("z", false, "also apply zero-gain rewrites"),
		level:     fs.Bool("l", false, "preserve levels: reject depth-increasing rewrites"),
		verify:    fs.Bool("verify", false, "equivalence-check the result against the input"),
		simOnly:   fs.Bool("sim-only", false, "with -verify: check by simulation only (for large circuits)"),
		lut:       fs.Int("lut", 0, "after optimizing, also map into k-input LUTs (2..16) and report mapped area/depth"),
		script:    fs.String("script", "", "run an ABC-style flow instead of one engine, e.g. \"b; rw; rf; rs -w=8; b\" (per-step flags: -z zero-gain, -w=N workers, -k=N cut width on rewriting; -p on rf/rs is accepted and does nothing; use 'resyn2' for the classic script)"),
		list:      fs.Bool("list", false, "list generatable benchmarks and exit"),
		stats:     fs.Bool("stats", false, "collect engine metrics and print a per-phase summary"),
		statsJSON: fs.String("stats-json", "", "collect engine metrics and write the snapshot(s) as JSON to this file ('-' for stdout)"),
		traceConf: fs.Int("trace-conflicts", 0, "with -stats/-stats-json: sample up to N aborted activities per worker into the snapshot"),
		pprofPfx:  fs.String("pprof", "", "write CPU and heap profiles around the run to <prefix>.cpu.pprof and <prefix>.heap.pprof"),
	}
}

// job builds the run's one Job from the parsed flags and validates it. A
// preset (-p1, -p2) is the starting point and only the knob flags the
// user set override it, as dacparad's preset= does with its query
// parameters. -sim-only replaces the job's own SAT-backed check with a
// simulation screen after the run. Flags that only matter after the run
// are checked here too, so a bad one fails before any work.
func (c *cli) job() (dacpara.Job, error) {
	var cfg dacpara.Config
	switch {
	case *c.p1 && *c.p2:
		return dacpara.Job{}, errors.New("dacpara: -p1 and -p2 are exclusive")
	case *c.simOnly && !*c.verify:
		return dacpara.Job{}, errors.New("dacpara: -sim-only needs -verify")
	case *c.lut != 0 && (*c.lut < 2 || *c.lut > lutmap.MaxK):
		return dacpara.Job{}, fmt.Errorf("dacpara: -lut %d out of range 2..%d", *c.lut, lutmap.MaxK)
	case *c.outPath != "" && aig.CheckOutputName(*c.outPath) != nil:
		return dacpara.Job{}, fmt.Errorf("dacpara: -out %w", aig.CheckOutputName(*c.outPath))
	case *c.p1:
		cfg = dacpara.P1()
	case *c.p2:
		cfg = dacpara.P2()
	}
	c.fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "threads":
			cfg.Workers = *c.threads
		case "passes":
			cfg.Passes = *c.passes
		case "k":
			cfg.K = *c.cutK
		case "z":
			cfg.ZeroGain = *c.zero
		case "l":
			cfg.PreserveDelay = *c.level
		}
	})
	job := dacpara.Job{Engine: dacpara.Engine(*c.engine), Verify: *c.verify && !*c.simOnly}.WithKnobs(cfg)
	if flow := *c.script; flow != "" {
		switch flow {
		case "resyn2":
			flow = dacpara.Resyn2
		case "resyn2rs":
			flow = dacpara.Resyn2rs
		}
		job.Engine, job.Flow = "", flow
	}
	return job, job.Validate()
}

func main() {
	c := newCLI(flag.CommandLine)
	flag.Parse()

	if *c.list {
		for _, n := range dacpara.BenchmarkNames(parseScale(*c.scale)) {
			fmt.Println(n)
		}
		return
	}

	var net *dacpara.Network
	var err error
	switch {
	case *c.gen != "":
		net, err = dacpara.Generate(*c.gen, parseScale(*c.scale))
	case *c.in != "":
		net, err = dacpara.ReadAIGER(*c.in)
	default:
		fmt.Fprintln(os.Stderr, "dacpara: need -in or -gen (see -h)")
		os.Exit(2)
	}
	fatal(err)

	job, err := c.job()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var hooks dacpara.Hooks
	if *c.stats || *c.statsJSON != "" {
		hooks.Attach.Metrics = dacpara.NewMetrics()
		hooks.Attach.Metrics.TraceConflicts(*c.traceConf)
	}

	if *c.pprofPfx != "" {
		f, err := os.Create(*c.pprofPfx + ".cpu.pprof")
		fatal(err)
		fatal(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			h, err := os.Create(*c.pprofPfx + ".heap.pprof")
			fatal(err)
			defer h.Close()
			fatal(pprof.WriteHeapProfile(h))
		}()
	}

	var golden *dacpara.Network
	if *c.verify && *c.simOnly {
		golden = net.Clone()
	}

	before := net.Stats()
	out, err := dacpara.Run(context.Background(), net, job, hooks)
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

	if *c.stats {
		for _, s := range snapshots {
			s.Format(os.Stdout)
		}
	}
	if *c.statsJSON != "" {
		fatal(writeSnapshots(*c.statsJSON, snapshots))
	}

	if *c.lut > 0 {
		m, err := lutmap.Map(net, *c.lut)
		fatal(err)
		fmt.Printf("mapped: %d LUT%d, depth %d\n", m.Area, *c.lut, m.Depth)
	}

	if golden != nil {
		r, err := cec.Check(golden, net, cec.Options{SimOnly: true, SimRounds: 64})
		fatal(err)
		if !r.Equivalent {
			fmt.Fprintln(os.Stderr, "dacpara: EQUIVALENCE CHECK FAILED")
			os.Exit(1)
		}
	}
	if *c.verify {
		fmt.Println("equivalence check passed")
	}

	if *c.outPath != "" {
		fatal(net.WriteFile(*c.outPath))
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
