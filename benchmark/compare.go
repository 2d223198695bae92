package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// readRecords loads a JSON-lines result file as -out writes it.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// values collects one metric over a file's timed runs of one workload.
// With a single run, the run's own quartiles stand in for the spread.
func values(recs []record, workload, metric string) (vals []float64, within float64) {
	for _, r := range recs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			vals = append(vals, m.Value)
			if m.N > 1 && m.Value != 0 {
				within = math.Abs((m.Q3 - m.Q1) / m.Value)
			}
		}
	}
	if len(vals) > 1 {
		within = spread(vals)
	}
	return vals, within
}

// compareFiles prints, per workload, each end-to-end metric's median in
// the two files, by how much b is worse than a as a share of a, the
// bound, and a verdict: "worse" beyond the bound, "unresolved" when
// either side's own spread is wider than the bound (so staying inside it
// proves nothing), "ok" otherwise. The exit code is 1 if anything is
// worse.
func compareFiles(stdout, stderr io.Writer, sp *spec, pathA, pathB string) int {
	a, err := readRecords(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no runs", pathA)
	}
	var b []record
	if err == nil {
		b, err = readRecords(pathB)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-14s %-20s %12s %12s %9s %7s %8s %5s  %s\n",
		"workload", "metric", "a", "b", "worse by", "bound", "spread", "runs", "verdict")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, sa := values(a, w.Name, m.Name)
			vb, sb := values(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / math.Abs(ma)
			if m.Better == "higher" {
				worse = -worse
			}
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			verdict := "ok"
			switch {
			case worse > bound:
				verdict = "worse"
				code = 1
			case max(sa, sb) > bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(stdout, "%-14s %-20s %12.6g %12.6g %+8.2f%% %6.1f%% %7.2f%% %2d/%-2d  %s\n",
				w.Name, m.Name, ma, mb, 100*worse, 100*bound, 100*max(sa, sb), len(va), len(vb), verdict)
		}
	}
	return code
}
