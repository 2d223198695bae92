package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"dacpara"
	"dacpara/internal/aig"
	"dacpara/internal/bench"
	"dacpara/internal/cec"
)

// verifiedFlow is the script of flow_verified: every pass of the
// repository, rewriting four times so the persistent cut cache is used
// warm.
const verifiedFlow = "b; rw; rf -p; b; rw; rw -z; b; rs -p; rw -z; b"

// flowWorkload is flow_verified: a set of small circuits, each through
// the whole flow single-threaded, then full equivalence proofs by the
// program, whose verdicts the oracle checks. One operation is optimize
// and prove: its time is the flows' plus the proofs'.
type flowWorkload struct {
	env
	inputs []input
	golden []*aig.AIG
	steps  []dacpara.FlowStep
	broken *aig.AIG // golden[0] with one output complemented by the oracle
}

func setupFlow(e env) (workload, error) {
	if err := buildLibrary(); err != nil {
		return nil, err
	}
	w := &flowWorkload{env: e, inputs: genFlowVerified(e.z, e.seed)}
	var err error
	if w.golden, err = goldens(w.inputs); err != nil {
		return nil, err
	}
	if w.steps, err = dacpara.ParseFlow(verifiedFlow); err != nil {
		return nil, err
	}
	flipped, err := flipOutput(w.inputs[0].aiger, 0)
	if err != nil {
		return nil, err
	}
	if w.broken, err = aig.Read(bytes.NewReader(flipped)); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *flowWorkload) close() {}

// probes adds to the circuit probes the program's simulation-only check
// of every pair and the known false inequivalence (README, "Known
// failures"): cec.Check of log2-tiny against its one-pass rewrite says
// NOT EQUIVALENT although the oracle's exhaustive simulation of all
// 2^10 assignments finds no differing output. The pair stays out of the
// workload's operations, where no operation may fail, and is counted
// here as cec.wrong_verdicts.
func (w *flowWorkload) probes(tr *tracer, firstOp int) {
	op := probeCircuits(tr, w.inputs, dacpara.Config{Workers: 1}, firstOp)
	for rep := 0; rep < probeReps; rep++ {
		for i, g := range w.golden {
			other, err := aig.Read(bytes.NewReader(w.inputs[i].aiger))
			if err != nil {
				continue
			}
			sp := tr.begin("cec.sim", op, 1, -1)
			_, _ = cec.Check(g, other, cec.Options{SimOnly: true, SimRounds: simRounds}) // timed, verdict not needed
			tr.end(sp)
		}
		op++
	}

	in := newInput("log2-tiny", bench.Log2(10, 4))
	a, errA := aig.Read(bytes.NewReader(in.aiger))
	b, rewritten, errB := onePass(in)
	if errA != nil || errB != nil {
		return
	}
	out, err := parseAIGER(rewritten)
	if err != nil {
		return
	}
	truth, _ := equivalent(in.ref, out, w.seed)
	v, err := cec.Check(a, b, cec.Options{})
	wrong := 0.0
	if err != nil || v.Equivalent != truth {
		wrong = 1
	}
	tr.record("cec.wrong_verdicts", wrong)
}

// onePass reads an input and rewrites it once with the dacpara engine on
// one worker: the second circuit of each input's proof pairs.
func onePass(in input) (*aig.AIG, []byte, error) {
	net, err := aig.Read(bytes.NewReader(in.aiger))
	if err != nil {
		return nil, nil, fmt.Errorf("read: %w", err)
	}
	if _, err := dacpara.Rewrite(net, dacpara.EngineDACPara, dacpara.Config{Workers: 1}); err != nil {
		return nil, nil, fmt.Errorf("one-pass rewrite: %w", err)
	}
	var buf bytes.Buffer
	if err := net.WriteBinary(&buf); err != nil {
		return nil, nil, fmt.Errorf("write: %w", err)
	}
	return net, buf.Bytes(), nil
}

// stepLayer names the layer a flow step's time belongs to; the first
// rewriting step enumerates cuts cold, the later ones reuse the flow's
// cut cache.
func stepLayer(st dacpara.FlowStep, rwSeen *int) string {
	switch st.Cmd {
	case "balance":
		return "balance.run"
	case "refactor":
		return "refactor.run"
	case "resub":
		return "resub.run"
	}
	*rwSeen++
	if *rwSeen == 1 {
		return "flow.rw_cold"
	}
	return "flow.rw_warm"
}

func (w *flowWorkload) op(tr *tracer, opID int) opResult {
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
		cfg := dacpara.Config{Workers: 1}
		if tr != nil {
			cfg.Metrics = dacpara.NewMetrics()
		}
		// The step-boundary hook is the only public seam between flow
		// steps, so that is where the traced run cuts the per-pass spans;
		// the timed run passes no hook, which is plain dacpara.Flow.
		flow := tr.begin("flow", opID, 0, root)
		var hook dacpara.FlowCheckpoint
		if tr != nil {
			stepStart, rwSeen := tr.startOf(flow), 0
			hook = func(completed int, _ *dacpara.Network) error {
				now := time.Since(tr.t0)
				tr.add(stepLayer(w.steps[completed-1], &rwSeen), opID, 0, flow, stepStart, now-stepStart)
				stepStart = now
				return nil
			}
		}
		results, out, err := dacpara.FlowResumeContext(context.Background(), net, verifiedFlow, cfg, 0, hook)
		tr.end(flow)
		if err != nil {
			s.fail("%s: flow: %v", in.name, err)
			continue
		}
		for k, r := range results {
			if w.steps[k].Engine != "" {
				eng.add(r)
			}
		}
		var buf bytes.Buffer
		sp = tr.begin("aig.write", opID, 0, root)
		err = out.WriteBinary(&buf)
		tr.end(sp)
		if err != nil {
			s.fail("%s: write: %v", in.name, err)
			continue
		}
		outs[i], nets[i] = buf.Bytes(), out
	}
	s.wall = time.Since(t0).Seconds()
	tr.end(root)

	// Untimed: the oracle judges every flow output, and the harness
	// prepares the second pair of each circuit, its one-pass rewrite.
	type pair struct {
		name string
		a, b *aig.AIG
		want bool // the oracle's answer
	}
	var pairs []pair
	for i, in := range w.inputs {
		if outs[i] == nil {
			continue
		}
		sp := tr.begin("aig.check", opID, 0, -1)
		err := nets[i].Check(aig.CheckOptions{})
		tr.end(sp)
		if err != nil {
			s.fail("%s: aig.Check: %v", in.name, err)
		}
		c := checkOutput(in, outs[i], w.seed+int64(opID), &s)
		if c == nil {
			continue
		}
		s.andsIn += len(in.ref.ands)
		s.andsOut += len(c.ands)
		s.depthIn += in.ref.depth()
		s.depthOut += c.depth()
		pairs = append(pairs, pair{in.name + " flow", w.golden[i], nets[i], true})

		one, bytesOut, err := onePass(in)
		if err != nil {
			s.fail("%s: %v", in.name, err)
			continue
		}
		if checkOutput(in, bytesOut, w.seed+int64(opID), &s) != nil {
			pairs = append(pairs, pair{in.name + " rewrite", w.golden[i], one, true})
		}
	}
	pairs = append(pairs, pair{w.inputs[0].name + " broken", w.golden[0], w.broken, false})

	// Timed again, the second half of the operation: the program proves
	// every equivalent pair and refutes the one the oracle broke.
	var conflicts int64
	proved := 0
	root = tr.begin("op.prove", opID, 0, -1)
	t0 = time.Now()
	for _, p := range pairs {
		sp := tr.begin("cec.check", opID, 0, root)
		v, err := cec.Check(p.a, p.b, cec.Options{})
		tr.end(sp)
		conflicts += v.SATConflicts
		if v.Proved {
			proved++
		}
		if err != nil || v.Equivalent != p.want {
			s.fail("%s: cec verdict equivalent=%v, the oracle says %v (err=%v)", p.name, v.Equivalent, p.want, err)
		}
	}
	proving := time.Since(t0).Seconds()
	tr.end(root)
	s.wall += proving
	res.section = s.wall

	eng.record(tr)
	tr.record("cec.sat_conflicts", float64(conflicts))
	tr.record("cec.proved_share", float64(proved)/float64(len(pairs)))
	tr.record("sat.conflicts_per_s", float64(conflicts)/proving)
	res.samples = []sample{s}
	return res
}
