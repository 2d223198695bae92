package main

// Input generation. Everything here is a pure function of the workload
// seed; the program under test is handed only the AIGER bytes (and, for
// the service, the HTTP requests) this file produces.
//
// The driver compares runs across seeds, so whatever a seed changes reads
// as noise in every metric. The seed therefore changes content only where
// content averages out inside one run: a 32 000-AND random circuit has
// nearly the same cost and QoR under every seed, and an arithmetic
// circuit with permuted and complemented inputs is the same structure.
// On small circuits it does not average out — flow time moves by ±10 %
// and SAT effort by ±40 % between two random 1 500-AND circuits, or two
// input orders of one circuit — so the two workloads built from small
// circuits keep their circuits fixed and let the seed draw the order they
// arrive in and which of them are repeated.

import (
	"bytes"
	"math/rand"
	"net/url"

	"dacpara/internal/aig"
	"dacpara/internal/bench"
)

// sizes are the input dimensions of the four workloads.
type sizes struct {
	mtmGates int // mtm_wide: one MtM circuit of this many ANDs

	divWidth, sqrtWidth, doublings int // arith_deep

	sinBits, voterN, sqrtBits, logBits, logFrac, ctrlGates, smallMtM int // flow_verified

	jobs, jobMin, jobMax int // service_jobs: jobs per round, AND range per job
}

var fullSizes = sizes{
	mtmGates: 32_000,
	divWidth: 24, sqrtWidth: 40, doublings: 1,
	sinBits: 6, voterN: 31, sqrtBits: 16, logBits: 7, logFrac: 3, ctrlGates: 1500, smallMtM: 1500,
	jobs: 48, jobMin: 1000, jobMax: 8000,
}

// quickSizes make every workload finish in about a second, for the smoke
// test; the numbers they produce mean nothing.
var quickSizes = sizes{
	mtmGates: 1500,
	divWidth: 6, sqrtWidth: 8, doublings: 1,
	sinBits: 4, voterN: 7, sqrtBits: 8, logBits: 6, logFrac: 2, ctrlGates: 300, smallMtM: 300,
	jobs: 20, jobMin: 200, jobMax: 600,
}

// subSeed derives the i-th independent non-negative seed from a workload
// seed (splitmix64), so members of one input set never share a stream.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64((z ^ z>>31) >> 1)
}

// input is one generated circuit as the program receives it.
type input struct {
	name  string
	aiger []byte
	ref   *circuit // the oracle's parse of aiger
}

func newInput(name string, a *aig.AIG) input {
	var buf bytes.Buffer
	if err := a.WriteBinary(&buf); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	ref, err := parseAIGER(buf.Bytes())
	if err != nil {
		panic("generated input does not parse: " + err.Error())
	}
	return input{name: name, aiger: buf.Bytes(), ref: ref}
}

// variant rebuilds a fixed-structure circuit with its inputs permuted
// and a random subset of inputs and outputs complemented. The arithmetic
// generators take no seed; this is how one seed's divider differs from
// another's while having exactly the same size and depth.
func variant(a *aig.AIG, seed int64) *aig.AIG {
	rng := rand.New(rand.NewSource(seed))
	v := aig.New(aig.Options{CapacityHint: int(a.Capacity())})
	v.Name = a.Name
	fresh := make([]aig.Lit, a.NumPIs())
	for i := range fresh {
		fresh[i] = v.AddPI()
	}
	m := make([]aig.Lit, a.Capacity())
	m[0] = aig.LitFalse
	for i, k := range rng.Perm(a.NumPIs()) {
		m[a.PIs()[i]] = fresh[k].XorCompl(rng.Intn(2) == 1)
	}
	at := func(l aig.Lit) aig.Lit { return m[l.Node()].XorCompl(l.Compl()) }
	for _, id := range a.TopoOrder(nil) {
		if n := a.N(id); n.IsAnd() {
			m[id] = v.And(at(n.Fanin0()), at(n.Fanin1()))
		}
	}
	for _, po := range a.POs() {
		v.AddPO(at(po).XorCompl(rng.Intn(2) == 1))
	}
	return v
}

func genMtMWide(z sizes, seed int64) []input {
	return []input{newInput("mtm", bench.MtM("mtm", z.mtmGates, subSeed(seed, 0)))}
}

func genArithDeep(z sizes, seed int64) []input {
	return []input{
		newInput("div", variant(aig.DoubleN(bench.Divider(z.divWidth), z.doublings), subSeed(seed, 0))),
		newInput("sqrt", variant(aig.DoubleN(bench.Sqrt(z.sqrtWidth), z.doublings), subSeed(seed, 1))),
	}
}

// fixedSeed derives the content seed of the i-th fixed circuit of a
// workload; it does not depend on the run's seed.
func fixedSeed(i int) int64 { return subSeed(0x0DAC, i) }

// genFlowVerified returns the six circuits of flow_verified in seeded
// order. The circuits themselves are the same under every seed, which is
// what lets this workload's counts (area, depth, SAT conflicts) repeat
// exactly.
func genFlowVerified(z sizes, seed int64) []input {
	set := []input{
		newInput("sin", bench.Sin(z.sinBits)),
		newInput("voter", bench.Voter(z.voterN)),
		newInput("sqrt", bench.Sqrt(z.sqrtBits)),
		newInput("log2", bench.Log2(z.logBits, z.logFrac)),
		newInput("mem_ctrl", bench.MemCtrl(z.ctrlGates, fixedSeed(0))),
		newInput("mtm", bench.MtM("m", z.smallMtM, fixedSeed(1))),
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
	return set
}

// jobKind names the three request classes of the service mix.
type jobKind int

const (
	jobEngine jobKind = iota // a unique circuit through the dacpara engine
	jobRepeat                // byte-identical resubmission of an earlier engine job
	jobFlow                  // a unique circuit through a four-step flow script
)

// serviceFlow is the script of the flow jobs: four steps, so four step
// checkpoints per job on a durable service.
const serviceFlow = "b; rw; b; rw -z"

// job is one HTTP submission.
type job struct {
	input
	kind  jobKind
	query string // POST /jobs?<query>
}

// repeatDistance is how many submissions back, at least, a repeat's
// original lies: far enough that with up to four closed-loop clients the
// original has finished, so every repeat is a result-cache hit.
const repeatDistance = 8

// genServiceJobs draws one round of the service mix: 60 % unique engine
// jobs, 25 % repeats, 15 % flow jobs. The unique jobs are the same under
// every seed — sizes on a fixed ladder from jobMin to jobMax, every
// fifth one a flow job — and the seed draws their order, where the
// repeats fall and what each repeats.
func genServiceJobs(z sizes, seed int64) []job {
	nRepeat := z.jobs / 4
	unique := z.jobs - nRepeat
	nFlow := z.jobs * 15 / 100
	engineQuery := url.Values{"engine": {"dacpara"}, "workers": {"1"}}.Encode()
	flowQuery := url.Values{"flow": {serviceFlow}, "workers": {"1"}}.Encode()
	pool := make([]job, unique)
	for u := range pool {
		gates := z.jobMin + (z.jobMax-z.jobMin)*u/max(unique-1, 1)
		var a *aig.AIG
		if u%2 == 0 {
			a = bench.MemCtrl(gates, fixedSeed(u))
		} else {
			a = bench.MtM("m", gates, fixedSeed(u))
		}
		pool[u] = job{input: newInput(a.Name, a), kind: jobEngine, query: engineQuery}
		if u*nFlow/unique != (u+1)*nFlow/unique {
			pool[u].kind, pool[u].query = jobFlow, flowQuery
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	// Open with an engine job, so that every repeat has an original.
	for i := range pool {
		if pool[i].kind == jobEngine {
			pool[0], pool[i] = pool[i], pool[0]
			break
		}
	}
	// Repeats fall on seeded positions past the head.
	isRepeat := make([]bool, z.jobs)
	for _, p := range rng.Perm(z.jobs - repeatDistance)[:nRepeat] {
		isRepeat[repeatDistance+p] = true
	}
	jobs := make([]job, 0, z.jobs)
	var engines []int // positions of the engine jobs so far
	for i, u := 0, 0; i < z.jobs; i++ {
		if !isRepeat[i] {
			if pool[u].kind == jobEngine {
				engines = append(engines, i)
			}
			jobs = append(jobs, pool[u])
			u++
			continue
		}
		old := 0
		for old < len(engines) && engines[old] <= i-repeatDistance {
			old++
		}
		orig := jobs[engines[rng.Intn(old)]]
		jobs = append(jobs, job{input: orig.input, kind: jobRepeat, query: orig.query})
	}
	return jobs
}
