package main

import (
	"bytes"
	"fmt"
	"time"

	"dacpara"
	"dacpara/internal/aig"
	"dacpara/internal/cec"
	"dacpara/internal/npn"
	"dacpara/internal/rewlib"
)

// sample is one attempted operation — for the batch workloads a pass over
// the input set, for the service one job — and what it contributes to
// the end-to-end metrics.
type sample struct {
	wall     float64 // seconds, input bytes handed over → output bytes back
	andsIn   int
	andsOut  int
	depthIn  int
	depthOut int
	errs     []string // why the operation counts as failed; empty if it passed
}

func (s *sample) fail(format string, args ...any) {
	s.errs = append(s.errs, fmt.Sprintf(format, args...))
}

// opResult is the outcome of one call of workload.op.
type opResult struct {
	samples []sample
	section float64 // seconds of the timed section, the base of throughput
}

// workload is one of the four benchmark workloads, set up from a seed.
type workload interface {
	// op runs the program once on the generated inputs and checks every
	// output. A nil tracer is the timed configuration: no spans, no
	// collector.
	op(tr *tracer, opID int) opResult
	// probes measures, in the traced run only, the layer figures an
	// operation does not expose: each probe repetition is an operation
	// of its own, numbered from firstOp.
	probes(tr *tracer, firstOp int)
	// close releases what setup acquired.
	close()
}

// env is what every workload's setup receives.
type env struct {
	z       sizes
	seed    int64
	workers int    // W = min(GOMAXPROCS, 4)
	scratch string // a directory inside the checkout for temporary files
}

// buildLibrary rebuilds the rewriting structure library from scratch, so
// that every setup repetition pays for it; the engines then use the
// process-wide copy, built the same way on its first use.
func buildLibrary() error {
	_, err := rewlib.Build(npn.Shared(), rewlib.Params{})
	return err
}

// golden parses the inputs once more into the program's own network
// type, the left-hand side of the program's equivalence checks.
func goldens(inputs []input) ([]*aig.AIG, error) {
	out := make([]*aig.AIG, len(inputs))
	for i, in := range inputs {
		g, err := aig.Read(bytes.NewReader(in.aiger))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		out[i] = g
	}
	return out, nil
}

// checkOutput is the oracle's verdict on one output: it must parse and
// agree with its input on the oracle's own simulation. It returns the
// oracle's parse for the QoR figures, nil if there is none.
func checkOutput(in input, out []byte, seed int64, s *sample) *circuit {
	c, err := parseAIGER(out)
	if err != nil {
		s.fail("%s: output does not parse: %v", in.name, err)
		return nil
	}
	if eq, _ := equivalent(in.ref, c, seed); !eq {
		s.fail("%s: output differs from input under simulation", in.name)
	}
	return c
}

// simCheck runs the program's simulation-only equivalence check — the
// affordable one where a proof costs fifty times the rewrite — and fails
// the sample unless it says equivalent.
func simCheck(tr *tracer, opID int, name string, golden, out *aig.AIG, s *sample) {
	sp := tr.begin("cec.sim", opID, 0, -1)
	v, err := cec.Check(golden, out, cec.Options{SimOnly: true, SimRounds: simRounds})
	tr.end(sp)
	if err != nil || !v.Equivalent {
		s.fail("%s: program's simulation check: equivalent=%v err=%v", name, v.Equivalent, err)
	}
}

// rewriteWorkload is mtm_wide and arith_deep: each input goes AIGER
// bytes → aig.Read → dacpara.Rewrite → WriteBinary bytes, and an
// operation is one pass over the input set.
type rewriteWorkload struct {
	env
	inputs []input
	golden []*aig.AIG
	cfg    dacpara.Config
}

func setupRewrite(e env, gen func(sizes, int64) []input, cfg dacpara.Config) (workload, error) {
	if err := buildLibrary(); err != nil {
		return nil, err
	}
	w := &rewriteWorkload{env: e, inputs: gen(e.z, e.seed), cfg: cfg}
	w.cfg.Workers = e.workers
	var err error
	w.golden, err = goldens(w.inputs)
	return w, err
}

func (w *rewriteWorkload) close() {}

func (w *rewriteWorkload) probes(tr *tracer, firstOp int) {
	probeCircuits(tr, w.inputs, w.cfg, firstOp)
}

func (w *rewriteWorkload) op(tr *tracer, opID int) opResult {
	var res opResult
	var s sample
	var eng engineCounts
	outs := make([][]byte, len(w.inputs))
	nets := make([]*aig.AIG, len(w.inputs))

	root := tr.begin("op", opID, 0, -1)
	t0 := time.Now()
	for i, in := range w.inputs {
		sp := tr.begin("aig.read", opID, 0, root)
		net, err := aig.Read(bytes.NewReader(in.aiger))
		tr.end(sp)
		if err != nil {
			s.fail("%s: read: %v", in.name, err)
			continue
		}
		cfg := w.cfg
		if tr != nil {
			cfg.Metrics = dacpara.NewMetrics()
		}
		sp = tr.begin("core.rewrite", opID, 0, root)
		r, err := dacpara.Rewrite(net, dacpara.EngineDACPara, cfg)
		tr.end(sp)
		if err != nil {
			s.fail("%s: rewrite: %v", in.name, err)
			continue
		}
		eng.add(r)
		var buf bytes.Buffer
		sp = tr.begin("aig.write", opID, 0, root)
		err = net.WriteBinary(&buf)
		tr.end(sp)
		if err != nil {
			s.fail("%s: write: %v", in.name, err)
			continue
		}
		outs[i], nets[i] = buf.Bytes(), net
	}
	s.wall = time.Since(t0).Seconds()
	tr.end(root)
	res.section = s.wall

	// Untimed: structural check, the program's simulation-only
	// equivalence check, the oracle.
	for i, in := range w.inputs {
		if outs[i] == nil {
			continue
		}
		sp := tr.begin("aig.check", opID, 0, -1)
		err := nets[i].Check(aig.CheckOptions{AllowDuplicates: true})
		tr.end(sp)
		if err != nil {
			s.fail("%s: aig.Check: %v", in.name, err)
		}
		simCheck(tr, opID, in.name, w.golden[i], nets[i], &s)
		if c := checkOutput(in, outs[i], w.seed+int64(opID), &s); c != nil {
			s.andsIn += len(in.ref.ands)
			s.andsOut += len(c.ands)
			s.depthIn += in.ref.depth()
			s.depthOut += c.depth()
		}
	}
	eng.record(tr)
	res.samples = []sample{s}
	return res
}

// engineCounts sums, over the engine runs of one operation, what Result
// and the Config.Metrics collector report.
type engineCounts struct {
	runs                       int
	workers                    int
	wall, work                 [3]int64 // enumerate, evaluate, replace (ns)
	evals, wastedEvals, levels int64
	replacements, stale        int64
	commits, aborts, lockFails int64
	committedNs, wastedNs      int64
}

func (e *engineCounts) add(r dacpara.Result) {
	e.runs++
	e.workers = r.Threads
	e.replacements += int64(r.Replacements)
	e.stale += int64(r.Stale)
	e.commits += r.Commits
	e.aborts += r.Aborts
	e.committedNs += r.CommittedWork.Nanoseconds()
	e.wastedNs += r.WastedWork.Nanoseconds()
	if r.Metrics == nil {
		return
	}
	e.lockFails += r.Metrics.Speculation.LockFailures
	for _, p := range r.Metrics.Phases {
		for k, name := range [3]string{"enumerate", "evaluate", "replace"} {
			if p.Name == name {
				e.wall[k] += p.WallNs
				e.work[k] += p.WorkNs
			}
		}
		if p.Name == "enumerate" {
			e.levels += p.Intervals
		}
		e.evals += p.Evals
		e.wastedEvals += p.WastedEvals
	}
}

// record stores the operation's engine figures as layer values. The
// collector reports wall_ns 0 for the serial and fused engines, so the
// wall figures and the efficiency derived from them are recorded only
// when the engine barriered its phases.
func (e *engineCounts) record(tr *tracer) {
	if tr == nil || e.runs == 0 {
		return
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	work := e.work[0] + e.work[1] + e.work[2]
	wall := e.wall[0] + e.wall[1] + e.wall[2]
	tr.record("cut.enumerate_work_s", sec(e.work[0]))
	tr.record("rewrite.evaluate_work_s", sec(e.work[1]))
	tr.record("rewrite.eval_share", ratio(e.work[1], work))
	tr.record("rewrite.evals", float64(e.evals))
	tr.record("rewrite.wasted_evals", float64(e.wastedEvals))
	tr.record("rewrite.replacements", float64(e.replacements))
	if wall > 0 {
		tr.record("core.enumerate_wall_s", sec(e.wall[0]))
		tr.record("core.evaluate_wall_s", sec(e.wall[1]))
		tr.record("core.replace_wall_s", sec(e.wall[2]))
		tr.record("core.parallel_efficiency", ratio(work, int64(e.workers)*wall))
	}
	tr.record("core.levels", float64(e.levels))
	tr.record("core.stale_prep", float64(e.stale))
	tr.record("galois.commits", float64(e.commits))
	tr.record("galois.aborts", float64(e.aborts))
	tr.record("galois.abort_ratio", ratio(e.aborts, e.commits+e.aborts))
	tr.record("galois.lock_failures", float64(e.lockFails))
	tr.record("galois.wasted_s", sec(e.wastedNs))
	tr.record("galois.wasted_share", ratio(e.wastedNs, e.committedNs+e.wastedNs))
}
