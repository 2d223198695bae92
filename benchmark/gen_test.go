package main

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"dacpara/internal/aig"
)

// digests returns the structural digest of every input a seed
// generates, per workload, in order.
func digests(t *testing.T, seed int64) map[string][]string {
	t.Helper()
	sets := map[string][]input{
		"mtm_wide":      genMtMWide(quickSizes, seed),
		"arith_deep":    genArithDeep(quickSizes, seed),
		"flow_verified": genFlowVerified(quickSizes, seed),
	}
	for _, j := range genServiceJobs(quickSizes, seed) {
		sets["service_jobs"] = append(sets["service_jobs"], j.input)
	}
	out := map[string][]string{}
	for name, inputs := range sets {
		for _, in := range inputs {
			net, err := aig.Read(bytes.NewReader(in.aiger))
			if err != nil {
				t.Fatalf("%s/%s: %v", name, in.name, err)
			}
			out[name] = append(out[name], aig.StructuralDigest(net))
		}
	}
	return out
}

// The same seed gives the same inputs. Another seed gives other circuits
// where the seed changes content (mtm_wide, arith_deep) and the same
// circuits in another order where it does not (flow_verified,
// service_jobs; see gen.go for why).
func TestGeneratorsAreDeterministic(t *testing.T) {
	a, again, b := digests(t, 7), digests(t, 7), digests(t, 8)
	for name, da := range a {
		if !reflect.DeepEqual(da, again[name]) {
			t.Errorf("%s: seed 7 gave two different input sequences", name)
		}
		if reflect.DeepEqual(da, b[name]) {
			t.Errorf("%s: seeds 7 and 8 gave the same input sequence", name)
		}
		if name == "mtm_wide" || name == "arith_deep" {
			for i := range da {
				if da[i] == b[name][i] {
					t.Errorf("%s input %d: seeds 7 and 8 gave the same circuit", name, i)
				}
			}
			continue
		}
		if name == "flow_verified" {
			sortedA, sortedB := append([]string(nil), da...), append([]string(nil), b[name]...)
			sort.Strings(sortedA)
			sort.Strings(sortedB)
			if !reflect.DeepEqual(sortedA, sortedB) {
				t.Errorf("%s: seeds 7 and 8 gave different circuits, not only another order", name)
			}
		}
	}
}

// The arithmetic inputs differ between seeds in content only: the driver
// compares runs across seeds, so the amount of work must not move.
func TestVariantKeepsSize(t *testing.T) {
	a, b := genArithDeep(quickSizes, 1), genArithDeep(quickSizes, 2)
	for i := range a {
		if len(a[i].ref.ands) != len(b[i].ref.ands) || a[i].ref.depth() != b[i].ref.depth() {
			t.Errorf("%s: %d ANDs depth %d at seed 1, %d ANDs depth %d at seed 2", a[i].name,
				len(a[i].ref.ands), a[i].ref.depth(), len(b[i].ref.ands), b[i].ref.depth())
		}
	}
}

func TestServiceMix(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		jobs := genServiceJobs(quickSizes, seed)
		if len(jobs) != quickSizes.jobs {
			t.Fatalf("seed %d: %d jobs, want %d", seed, len(jobs), quickSizes.jobs)
		}
		count := map[jobKind]int{}
		for i, j := range jobs {
			count[j.kind]++
			if j.kind != jobRepeat {
				continue
			}
			found := false
			for k := 0; k <= i-repeatDistance; k++ {
				if jobs[k].kind == jobEngine && bytes.Equal(jobs[k].aiger, j.aiger) && jobs[k].query == j.query {
					found = true
				}
			}
			if !found {
				t.Errorf("seed %d: repeat %d has no engine original at least %d submissions back", seed, i, repeatDistance)
			}
		}
		if count[jobRepeat] != quickSizes.jobs/4 || count[jobFlow] != quickSizes.jobs*15/100 {
			t.Errorf("seed %d: mix %v", seed, count)
		}
	}
}
