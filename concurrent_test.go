package dacpara

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dacpara/internal/aig"
)

// TestConcurrentFacadeUse drives every engine from many goroutines at
// once against the shared default library — the access pattern dacparad
// produces when its scheduler runs several jobs concurrently. Run under
// -race this is the data-race check for the facade; functionally each
// run must still produce an equivalent circuit.
func TestConcurrentFacadeUse(t *testing.T) {
	engines := Engines()
	const perEngine = 3
	var wg sync.WaitGroup
	errc := make(chan error, len(engines)*perEngine)
	for _, engine := range engines {
		for i := 0; i < perEngine; i++ {
			wg.Add(1)
			go func(engine Engine, i int) {
				defer wg.Done()
				net, err := Generate("sin", ScaleTiny)
				if err != nil {
					errc <- err
					return
				}
				golden := net.Clone()
				if _, err := Rewrite(net, engine, Config{Workers: 2}); err != nil {
					errc <- fmt.Errorf("%s/%d: %w", engine, i, err)
					return
				}
				eq, err := Equivalent(golden, net)
				if err != nil {
					errc <- fmt.Errorf("%s/%d: %w", engine, i, err)
					return
				}
				if !eq {
					errc <- fmt.Errorf("%s/%d: not equivalent", engine, i)
				}
			}(engine, i)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestConcurrentDeterministicOutput checks the property dacparad's
// result cache leans on: with Workers=1 every engine is deterministic,
// so identical submissions produce byte-identical AIGER output even
// when the runs execute concurrently with each other.
func TestConcurrentDeterministicOutput(t *testing.T) {
	for _, engine := range Engines() {
		engine := engine
		t.Run(string(engine), func(t *testing.T) {
			t.Parallel()
			const runs = 4
			outs := make([][]byte, runs)
			var wg sync.WaitGroup
			for i := 0; i < runs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					net, err := Generate("voter", ScaleTiny)
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := Rewrite(net, engine, Config{Workers: 1, Passes: 2}); err != nil {
						t.Error(err)
						return
					}
					var buf bytes.Buffer
					if err := net.WriteBinary(&buf); err != nil {
						t.Error(err)
						return
					}
					outs[i] = buf.Bytes()
				}(i)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for i := 1; i < runs; i++ {
				if !bytes.Equal(outs[i], outs[0]) {
					t.Fatalf("run %d produced different bytes than run 0 (%d vs %d bytes)",
						i, len(outs[i]), len(outs[0]))
				}
			}
		})
	}
}

// TestRewriteContextCancellation covers the facade contract the service
// depends on: a cancelled context stops every engine with
// context.Canceled in the error chain, the result is marked Incomplete,
// and the half-rewritten network is still structurally sound.
func TestRewriteContextCancellation(t *testing.T) {
	for _, engine := range Engines() {
		engine := engine
		t.Run(string(engine), func(t *testing.T) {
			net, err := Generate("voter", ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			golden := net.Clone()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			var res Result
			var runErr error
			go func() {
				defer close(done)
				var out Outcome
				out, runErr = Run(ctx, net, Job{Engine: engine, Workers: 2, Passes: 500, ZeroGain: true}, Hooks{})
				res = out.Result
			}()
			time.Sleep(15 * time.Millisecond) // let it get into the sweep
			cancel()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("engine ignored cancellation")
			}
			if runErr == nil {
				// The run may legitimately have finished all passes before
				// the cancel landed; with 500 zero-gain passes that would
				// take far longer than 15ms, so treat it as a failure.
				t.Fatal("no error from cancelled run")
			}
			if !errors.Is(runErr, context.Canceled) {
				t.Fatalf("error %v does not wrap context.Canceled", runErr)
			}
			if !res.Incomplete {
				t.Fatal("cancelled run not marked Incomplete")
			}
			// The partially rewritten network must still be a well-formed,
			// equivalent AIG: cancellation lands at phase/level boundaries,
			// never mid-replacement.
			if err := net.Check(aig.CheckOptions{}); err != nil {
				t.Fatalf("network inconsistent after cancel: %v", err)
			}
			eq, err := Equivalent(golden, net)
			if err != nil {
				t.Fatal(err)
			}
			if !eq {
				t.Fatal("cancelled run corrupted the circuit")
			}
		})
	}
}

// TestPassContextCancellation pins the cancellation contract of the
// non-rewriting flow steps, at the job's and at two workers: a
// pre-cancelled context
// stops every variant with context.Canceled in the error chain before
// it transforms anything, and the step's Result is marked Incomplete.
// The service's job cancellation relies on every flow step honouring
// this. (The flow loop itself also stops between steps — see
// TestFlowContextCancellation — so the steps are driven directly.)
func TestPassContextCancellation(t *testing.T) {
	net, err := Generate("voter", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	step := func(n *Network, st FlowStep) (Result, *Network, error) {
		out := Outcome{Net: n}
		res, err := runFlowStep(ctx, &out, st, Config{})
		return res, out.Net, err
	}
	variants := []struct {
		name string
		step FlowStep
	}{
		{"refactor", FlowStep{Cmd: "refactor"}},
		{"refactor-parallel", FlowStep{Cmd: "refactor", Workers: 2}},
		{"resub", FlowStep{Cmd: "resub"}},
		{"resub-parallel", FlowStep{Cmd: "resub", Workers: 2}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			n := net.Clone()
			before := n.Stats()
			res, _, err := step(n, v.step)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled in the chain", err)
			}
			if !res.Incomplete {
				t.Fatal("cancelled run not marked Incomplete")
			}
			if err := n.Check(aig.CheckOptions{}); err != nil {
				t.Fatalf("network inconsistent after cancel: %v", err)
			}
			if after := n.Stats(); after.Ands != before.Ands {
				t.Fatalf("pre-cancelled run still transformed the network: %d -> %d ANDs",
					before.Ands, after.Ands)
			}
		})
	}
	t.Run("balance", func(t *testing.T) {
		res, b, err := step(net, FlowStep{Cmd: "balance"})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled in the chain", err)
		}
		if b != net || !res.Incomplete {
			t.Fatal("cancelled balance returned a partial copy")
		}
	})
}

// TestParallelPassDeterministicOutput extends the Workers=1 determinism
// property to the framework's level-parallel refactor and resub passes:
// with a single worker the engine's level sweeps are sequential, so
// repeated concurrent runs must produce byte-identical AIGER output.
func TestParallelPassDeterministicOutput(t *testing.T) {
	passes := []struct {
		name string
		run  func(n *Network) error
	}{
		{"refactor-parallel", func(n *Network) error {
			_, _, err := Flow(n, "refactor -w=1", Config{})
			return err
		}},
		{"resub-parallel", func(n *Network) error {
			_, _, err := Flow(n, "resub -w=1", Config{})
			return err
		}},
	}
	for _, p := range passes {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			const runs = 4
			outs := make([][]byte, runs)
			var wg sync.WaitGroup
			for i := 0; i < runs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					net, err := Generate("voter", ScaleTiny)
					if err != nil {
						t.Error(err)
						return
					}
					if err := p.run(net); err != nil {
						t.Error(err)
						return
					}
					var buf bytes.Buffer
					if err := net.WriteBinary(&buf); err != nil {
						t.Error(err)
						return
					}
					outs[i] = buf.Bytes()
				}(i)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for i := 1; i < runs; i++ {
				if !bytes.Equal(outs[i], outs[0]) {
					t.Fatalf("run %d produced different bytes than run 0 (%d vs %d bytes)",
						i, len(outs[i]), len(outs[0]))
				}
			}
		})
	}
}

// TestFlowContextCancellation: the flow runner stops between steps and
// returns the results of the steps that did finish.
func TestFlowContextCancellation(t *testing.T) {
	net, err := Generate("voter", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, _, err := FlowResumeContext(ctx, net, "balance; rewrite; balance; rewrite", Config{Workers: 1}, 0, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != 0 {
		t.Fatalf("pre-cancelled flow ran %d steps", len(results))
	}
}

// TestEquivalentBudget exercises the bounded-effort CEC entry point.
func TestEquivalentBudget(t *testing.T) {
	a, err := Generate("sqrt", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	if _, err := Rewrite(b, EngineDACPara, Config{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	eq, proved, err := EquivalentBudget(a, b, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if !eq || !proved {
		t.Fatalf("eq=%v proved=%v, want true/true", eq, proved)
	}

	// A genuinely different pair must never be reported equivalent,
	// proved or not.
	c := a.Clone()
	c.ReplacePO(0, c.PO(0).Not())
	eq, _, err = EquivalentBudget(a, c, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("inequivalent pair reported equivalent")
	}
}
