package main

import (
	"flag"
	"strings"
	"testing"

	"dacpara"
)

// TestJobFromFlags: a preset is where the knobs start, and every knob
// flag the user set overrides it — the flags are never silently dropped.
func TestJobFromFlags(t *testing.T) {
	p1 := dacpara.Job{Engine: dacpara.EngineDACPara}.WithKnobs(dacpara.P1())
	p2 := dacpara.Job{Engine: dacpara.EngineDACPara}.WithKnobs(dacpara.P2())
	with := func(j dacpara.Job, edit func(*dacpara.Job)) dacpara.Job {
		edit(&j)
		return j
	}
	for _, c := range []struct {
		args string
		want dacpara.Job
	}{
		{"", dacpara.Job{Engine: dacpara.EngineDACPara}},
		{"-z", dacpara.Job{Engine: dacpara.EngineDACPara, ZeroGain: true}},
		{"-engine abc -threads 3 -passes 2 -k 5 -l", dacpara.Job{Engine: dacpara.EngineSerial, Workers: 3, Passes: 2, K: 5, PreserveDelay: true}},
		{"-p1", p1},
		{"-p1 -threads 4", with(p1, func(j *dacpara.Job) { j.Workers = 4 })},
		{"-p1 -z -passes 4", with(p1, func(j *dacpara.Job) { j.ZeroGain, j.Passes = true, 4 })},
		{"-p2 -l -k 6", with(p2, func(j *dacpara.Job) { j.PreserveDelay, j.K = true, 6 })},
		{"-p1 -passes 0", with(p1, func(j *dacpara.Job) { j.Passes = 0 })},
		{"-verify", dacpara.Job{Engine: dacpara.EngineDACPara, Verify: true}},
		{"-verify -sim-only", dacpara.Job{Engine: dacpara.EngineDACPara}},
		{"-script resyn2 -z", dacpara.Job{Flow: dacpara.Resyn2, ZeroGain: true}},
	} {
		fs := flag.NewFlagSet("dacpara", flag.ContinueOnError)
		cl := newCLI(fs)
		if err := fs.Parse(strings.Fields(c.args)); err != nil {
			t.Fatalf("%q: %v", c.args, err)
		}
		got, err := cl.job()
		if err != nil {
			t.Errorf("%q: %v", c.args, err)
			continue
		}
		if got != c.want {
			t.Errorf("%q gave %+v, want %+v", c.args, got, c.want)
		}
	}
	for _, args := range []string{"-p1 -p2", "-k 3", "-engine frobnicate", "-script b;frobnicate", "-threads -1"} {
		fs := flag.NewFlagSet("dacpara", flag.ContinueOnError)
		cl := newCLI(fs)
		if err := fs.Parse(strings.Fields(args)); err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		if _, err := cl.job(); err == nil {
			t.Errorf("%q: accepted", args)
		}
	}
}
