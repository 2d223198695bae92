package main

// Layer probes: calls into one layer's public functions that an
// operation makes only deep inside the engine, repeated a few times in
// the traced run. Each repetition is an operation of its own in the
// trace, and a probe over an input set sums over the set like the
// workload's operation does.

import (
	"bytes"

	"dacpara"
	"dacpara/internal/aig"
	"dacpara/internal/cec"
	"dacpara/internal/cut"
	"dacpara/internal/engine"
)

// probeReps is how often each probe repeats: three values give a median
// that ignores one outlier, which the first, cache-cold repetition often
// is.
const probeReps = 3

// probeAIG times, on one input, the aig calls a rewrite and a service job
// both make: parse, levelize, clone, digest, write. It returns nil
// networks when the input does not parse, which the operations have
// already reported.
func probeAIG(tr *tracer, op int, aiger []byte) (net, clone *aig.AIG, levels int) {
	sp := tr.begin("aig.read", op, 1, -1)
	net, err := aig.Read(bytes.NewReader(aiger))
	tr.end(sp)
	if err != nil {
		return nil, nil, 0
	}
	sp = tr.begin("aig.levelize", op, 1, -1)
	levels = int(net.Levelize())
	tr.end(sp)
	sp = tr.begin("aig.clone", op, 1, -1)
	clone = net.Clone()
	tr.end(sp)
	sp = tr.begin("aig.digest", op, 1, -1)
	aig.StructuralDigest(net)
	tr.end(sp)
	sp = tr.begin("aig.write", op, 1, -1)
	_ = net.WriteBinary(&bytes.Buffer{}) // timed only; the operations check their writes
	tr.end(sp)
	return net, clone, levels
}

// recordShape stores the shape facts of one probe repetition's inputs.
func recordShape(tr *tracer, ands, levels int) {
	tr.record("aig.ands_in", float64(ands))
	tr.record("aig.levels_in", float64(levels))
	if levels > 0 {
		tr.record("aig.mean_level_width", float64(ands)/float64(levels))
	}
}

// probeCircuits runs the aig, cut, core and rewrite probes on a set of
// inputs and returns the next free operation number.
func probeCircuits(tr *tracer, inputs []input, cfg dacpara.Config, op int) int {
	for rep := 0; rep < probeReps; rep++ {
		var ands, levels, cuts int
		for _, in := range inputs {
			net, clone, lv := probeAIG(tr, op, in.aiger)
			if net == nil {
				continue
			}
			ands += net.NumAnds()
			levels += lv
			sp := tr.begin("aig.check", op, 1, -1)
			_ = net.Check(aig.CheckOptions{}) // timed only; the operations check their outputs
			tr.end(sp)
			sp = tr.begin("core.node_dividing", op, 1, -1)
			engine.ByLevel(net)
			tr.end(sp)

			// Cut enumeration outside the engine: every AND in
			// topological order on a fresh manager, then the same sweep
			// after a new epoch on the unchanged graph, which is what a
			// later rewriting step of a flow sees.
			order := net.TopoOrder(nil)
			m := cut.NewManager(net, cut.Params{K: cfg.K, MaxCuts: cfg.MaxCuts})
			sweep := func(name string) {
				sp := tr.begin(name, op, 1, -1)
				for _, id := range order {
					if net.N(id).IsAnd() {
						m.Ensure(id, nil)
					}
				}
				tr.end(sp)
			}
			sweep("cut.enum_cold")
			m.NextEpoch()
			sweep("cut.enum_warm")
			for _, id := range order {
				if net.N(id).IsAnd() {
					set, _ := m.Cuts(id)
					cuts += len(set)
				}
			}

			serial := cfg
			serial.Metrics = nil
			sp = tr.begin("rewrite.serial_wall", op, 1, -1)
			_, _ = dacpara.Rewrite(clone, dacpara.EngineSerial, serial) // timed only
			tr.end(sp)

			sp = tr.begin("cec.miter", op, 1, -1)
			cec.Miter(net, clone)
			tr.end(sp)
		}
		recordShape(tr, ands, levels)
		if ands > 0 {
			tr.record("cut.cuts_per_node", float64(cuts)/float64(ands))
		}
		op++
	}
	return op
}

// probeServiceInputs runs the aig probes on the service mix's distinct
// inputs: the calls a job makes inside the server.
func probeServiceInputs(tr *tracer, jobs []job, op int) int {
	for rep := 0; rep < probeReps; rep++ {
		var ands, levels int
		for _, j := range jobs {
			if j.kind == jobRepeat {
				continue
			}
			if net, _, lv := probeAIG(tr, op, j.aiger); net != nil {
				ands += net.NumAnds()
				levels += lv
			}
		}
		recordShape(tr, ands, levels)
		op++
	}
	return op
}
