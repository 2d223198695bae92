package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The harness runs from the repository root, like run.sh runs it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload end to end at -quick size, timed and
// traced, and holds the output to BENCHMARK.json: every metric it names
// is printed exactly once with its unit, and the last line is the result
// object the driver reads.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want [benchmark]", sp.Paths)
	}
	out := filepath.Join(t.TempDir(), "runs.jsonl")
	nonZero := map[string]bool{}
	for _, w := range sp.Workloads {
		for trace, want := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-quick", "--workload", w.Name, "--seed", "3",
				"--seconds", "0.2", "--trace", []string{"0", "1"}[trace], "-out", out}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %d: exit %d: %s", w.Name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			printed := map[string]int{}
			for _, l := range lines[:len(lines)-1] {
				if f := strings.Fields(l); len(f) >= 3 {
					printed[f[0]+" "+f[2]]++
				}
			}
			var final struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&final); err != nil {
				t.Fatalf("%s trace %d: last line is not the result object: %v", w.Name, trace, err)
			}
			if final.Correct == nil || !*final.Correct || final.Attempted == nil || *final.Attempted < 1 || final.Failed == nil || *final.Failed != 0 {
				t.Errorf("%s trace %d: result %s\n%s", w.Name, trace, lines[len(lines)-1], stdout.String())
			}
			if len(final.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics in the result, BENCHMARK.json names %d", w.Name, trace, len(final.Metrics), len(want))
			}
			for _, m := range want {
				if n := printed[m.Name+" "+m.Unit]; n != 1 {
					t.Errorf("%s trace %d: metric %s printed %d times with unit %s", w.Name, trace, m.Name, n, m.Unit)
				}
				got, ok := final.Metrics[m.Name]
				if !ok || got.Value == nil || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s missing from the result or without its unit", w.Name, trace, m.Name)
					continue
				}
				if *got.Value != 0 {
					nonZero[m.Name] = true
				} else if trace == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
			if trace == 1 {
				data, err := os.ReadFile(filepath.Join(outDir, w.Name+".trace.json"))
				var tf struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err != nil || json.Unmarshal(data, &tf) != nil || len(tf.TraceEvents) == 0 {
					t.Errorf("%s: trace file does not load: %v", w.Name, err)
				}
			}
		}
	}
	// A layer metric that reads 0 on every workload is a name no code
	// records: a typo in BENCHMARK.json or in the harness.
	for _, m := range sp.PerLayer {
		switch m.Name {
		case "serve.rejected", "cluster.requeued", "cluster.failed_jobs", "rewrite.wasted_evals", "core.stale_prep":
			continue // zero when nothing goes wrong
		}
		if !nonZero[m.Name] {
			t.Errorf("per-layer metric %s is 0 on every workload", m.Name)
		}
	}

	// The result file round-trips, and a run compared with itself is ok.
	recs, err := readRecords(out)
	if err != nil || len(recs) != 2*len(sp.Workloads) {
		t.Fatalf("read %d records, err %v", len(recs), err)
	}
	for _, r := range recs {
		if r.Trace == 1 && r.Coverage < 0.9 {
			t.Errorf("%s: child spans cover %.0f%% of operation time, want at least 90%%", r.Workload, 100*r.Coverage)
		}
		if r.Claim != nil {
			t.Errorf("%s: the record claims %v", r.Workload, r.Claim)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", out, out}, &stdout, &stderr); code != 0 {
		t.Errorf("comparing a file with itself: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
}

func TestCompareVerdicts(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, walls ...float64) string {
		path := filepath.Join(dir, name)
		for _, w := range walls {
			rec := &record{Workload: "mtm_wide", Metrics: map[string]metricValue{"wall_s": {Value: w, Unit: "s"}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	steady := write("steady", 1.00, 1.01, 0.99, 1.00, 1.02)
	slower := write("slower", 1.30, 1.31, 1.29, 1.30, 1.32)
	noisy := write("noisy", 0.6, 1.4, 1.0, 0.7, 1.3)
	for _, c := range []struct {
		a, b    string
		code    int
		verdict string
	}{
		{steady, steady, 0, "ok"},
		{steady, slower, 1, "worse"},
		{slower, steady, 0, "ok"},
		{steady, noisy, 0, "unresolved"},
	} {
		var stdout, stderr bytes.Buffer
		code := compareFiles(&stdout, &stderr, sp, c.a, c.b)
		if code != c.code || !strings.Contains(stdout.String(), c.verdict) {
			t.Errorf("%s vs %s: exit %d, want %d and verdict %s\n%s", filepath.Base(c.a), filepath.Base(c.b), code, c.code, c.verdict, stdout.String())
		}
	}
}
