package main

// Machine-speed calibration. The box this benchmark runs on is a small
// shared VM whose speed moves by 15–40 % over seconds to minutes for
// reasons the guest cannot see: no steal time is reported, and a
// register-only loop on a busy processor keeps its speed to ±1 %. What
// moves is the memory system (cache-resident streaming work takes up to
// 80 % longer, dependent cache-missing loads 30 %) and the time it takes
// to wake an idle processor, which a fork-join program pays at every
// barrier. Raw seconds of identical runs of mtm_wide spread (quartile
// distance over median) by 8–22 % in sets of ten, which is as much as the
// regressions the bounds are meant to catch.
//
// The timed run therefore follows every set-up and every operation with
// a fixed piece of the harness's own work, and multiplies the seconds it
// measured by how fast that work ran against a fixed reference time.
// What it reports is seconds at the reference speed; the record keeps
// the speed, so raw seconds are one division away. README.md ("Noise")
// has the measurements: where the box drifted inside a set the scaled
// times spread 4–5 % against 13–20 % raw, and where it held still the
// calibration's own scatter cost a few points (10 % against 5 %).

import (
	"math/rand"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The calibration work is three kernels with the three kinds of memory
// behaviour the program has. Each alone followed the operations' slowdown
// with an exponent of 0.6 to 1.4; their sum, in these proportions, with
// 0.9 to 1.0.
const (
	// Bit-parallel simulation of a random circuit whose arrays (256 KiB
	// of values, 256 KiB of ANDs) stay in a core's second-level cache:
	// streaming reads and near gathers, like a levelized sweep.
	calibrationAnds = 1 << 15
	sweepRounds     = 2 // per chunk
	// A chain of dependent loads through 16 MiB, eight times a core's
	// second-level cache: pointer chasing that misses, like fanout and
	// cut-set walks on a large network.
	chaseWords = 4 << 20
	chaseSteps = 3250 // per chunk
	// Independent read-modify-writes scattered over 4 MiB: hash-table
	// updates, like structural hashing.
	scatterBits  = 19
	scatterWords = 1 << scatterBits
	scatterSteps = 12_000 // per chunk
	// calibrationRef is the seconds one run of the three takes on this
	// box on a quiet day; it only fixes the unit.
	calibrationRef = 0.100
)

// calibrator runs the kernels on as many goroutines as the workload keeps
// processors busy, and times the slowest: the engines barrier their
// workers, so the slower processor sets an operation's time too.
type calibrator struct {
	c      *circuit
	region []byte   // the mapping the three arrays below are carved from
	chain  []uint32 // the chase's successor table
	scale  int      // divides the work, for -quick
	lanes  []calibrationLane
	sample []float64 // seconds of each run since the last take
}

type calibrationLane struct {
	pi, out    []uint64
	val, table []uint64
	at         uint32 // where the chase stands
	x          uint64 // the scatter's random state
}

// newCalibrator builds the kernels' data for the given number of
// goroutines. The large arrays live in an anonymous mapping, not on the
// Go heap: 25 MiB of live heap would let the program's garbage grow by as
// much again before each collection, and move the very memory and time
// figures the run is there to measure.
func newCalibrator(lanes int, quick bool) (*calibrator, error) {
	rng := rand.New(rand.NewSource(0x0CA1))
	const pis = 64
	c := &circuit{pis: pis, ands: make([][2]uint32, calibrationAnds), outs: []uint32{2 * (pis + calibrationAnds)}}
	for k := range c.ands {
		// Fanins among the 4096 variables before this one.
		hi := pis + 1 + k
		lo := max(hi-4096, 1)
		c.ands[k] = [2]uint32{
			uint32(2*(lo+rng.Intn(hi-lo)) + rng.Intn(2)),
			uint32(2*(lo+rng.Intn(hi-lo)) + rng.Intn(2)),
		}
	}
	vals := pis + 1 + calibrationAnds
	region, err := syscall.Mmap(-1, 0, 4*chaseWords+8*lanes*(vals+scatterWords),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	k := &calibrator{c: c, region: region, scale: 1, lanes: make([]calibrationLane, lanes)}
	if quick {
		k.scale = 100
	}
	k.chain = unsafe.Slice((*uint32)(unsafe.Pointer(&region[0])), chaseWords)
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&region[4*chaseWords])), lanes*(vals+scatterWords))
	// An odd multiplier makes i → a·i+b a permutation of the 2^22 slots,
	// and consecutive steps land megabytes apart.
	for i := range k.chain {
		k.chain[i] = uint32((uint64(i)*2654435761 + 12345) % chaseWords)
	}
	for i := range k.lanes {
		l := &k.lanes[i]
		l.pi = make([]uint64, pis)
		for j := range l.pi {
			l.pi[j] = rng.Uint64()
		}
		l.out = make([]uint64, 1)
		l.val, words = words[:vals], words[vals:]
		l.table, words = words[:scatterWords], words[scatterWords:]
		l.at, l.x = uint32(i*7919), uint64(i)+1
	}
	for i := 0; i < len(region); i += 4096 {
		region[i] = 0 // touch every page, so the whole footprint is resident from here on
	}
	return k, nil
}

// megabytes is the calibrator's resident footprint, which the harness
// takes out of the resident set it reports.
func (k *calibrator) megabytes() float64 { return float64(len(k.region)) / (1 << 20) }

func (k *calibrator) close() { _ = syscall.Munmap(k.region) } // nothing to do about a failed unmap

// calibrationChunks is how many fork-join steps the fixed work is cut
// into, a third of a millisecond each: a rewrite forks its workers and
// waits for them once per phase of every level, about as often, so what
// a slow wake-up of an idle processor costs the program it costs the
// calibration too.
const calibrationChunks = 200

// run does the fixed work once and notes the seconds it took.
func (k *calibrator) run() {
	t0 := time.Now()
	for c := 0; c < calibrationChunks/k.scale; c++ {
		var wg sync.WaitGroup
		for i := range k.lanes {
			wg.Add(1)
			go func(l *calibrationLane) {
				defer wg.Done()
				for r := 0; r < sweepRounds; r++ {
					k.c.sim(l.pi, l.val, l.out)
					l.pi[r] ^= l.out[0] // the next round depends on this one
				}
				for s := 0; s < chaseSteps; s++ {
					l.at = k.chain[l.at]
				}
				for s := 0; s < scatterSteps; s++ {
					l.x = l.x*6364136223846793005 + 1442695040888963407
					l.table[l.x>>(64-scatterBits)] += l.x
				}
			}(&k.lanes[i])
		}
		wg.Wait()
	}
	k.sample = append(k.sample, time.Since(t0).Seconds())
}

// calibrationShare is how long the calibration that follows a measured
// section runs, as a share of the section. Shorter samples of the box's
// speed scatter more than the seconds they are to correct: with one
// sample per two-second operation, flow_verified's scaled times spread
// 13 % where its raw ones spread 4 %.
const calibrationShare = 0.2

// follow runs the fixed work after a section that took the given
// seconds: at least once, and until the runs add up to calibrationShare
// of the section.
func (k *calibrator) follow(section float64) {
	for spent := 0.0; ; {
		k.run()
		spent += k.sample[len(k.sample)-1]
		if spent >= calibrationShare*section {
			return
		}
	}
}

// take returns the box's speed over the runs since the last take, as a
// share of the reference speed: seconds measured between those runs,
// times this, are seconds at the reference speed.
func (k *calibrator) take() float64 {
	speed := calibrationRef / float64(k.scale) / mean(k.sample)
	k.sample = k.sample[:0]
	return speed
}
