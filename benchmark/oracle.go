package main

// The oracle is the benchmark's own judge of functional correctness. It
// shares no code with the program under test: it has its own binary
// AIGER parser and its own bit-parallel simulator, so a bug in
// internal/aig, internal/cec or internal/sat cannot vouch for itself.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
)

// circuit is a parsed binary AIGER file. Literal 2v is variable v, 2v+1
// its complement; variable 0 is constant false, variables 1..pis are the
// inputs and AND i drives variable pis+1+i.
type circuit struct {
	pis  int
	ands [][2]uint32
	outs []uint32
}

// parseAIGER decodes a combinational binary AIGER ("aig") file.
func parseAIGER(data []byte) (*circuit, error) {
	r := bufio.NewReader(bytes.NewReader(data))
	var m, i, l, o, a int
	if _, err := fmt.Fscanf(r, "aig %d %d %d %d %d\n", &m, &i, &l, &o, &a); err != nil {
		return nil, fmt.Errorf("oracle: bad AIGER header: %w", err)
	}
	if l != 0 || m != i+a {
		return nil, fmt.Errorf("oracle: unsupported AIGER header M=%d I=%d L=%d A=%d", m, i, l, a)
	}
	c := &circuit{pis: i, ands: make([][2]uint32, a), outs: make([]uint32, o)}
	for k := range c.outs {
		if _, err := fmt.Fscanf(r, "%d\n", &c.outs[k]); err != nil {
			return nil, fmt.Errorf("oracle: output %d: %w", k, err)
		}
		if int(c.outs[k]) > 2*m+1 {
			return nil, fmt.Errorf("oracle: output %d literal %d out of range", k, c.outs[k])
		}
	}
	delta := func() (uint32, error) {
		var x uint32
		for shift := uint(0); ; shift += 7 {
			b, err := r.ReadByte()
			if err != nil {
				return 0, err
			}
			x |= uint32(b&0x7f) << shift
			if b&0x80 == 0 {
				return x, nil
			}
			if shift > 28 {
				return 0, errors.New("oracle: delta overflow")
			}
		}
	}
	for k := range c.ands {
		lhs := uint32(2 * (i + 1 + k))
		d0, err := delta()
		if err != nil {
			return nil, fmt.Errorf("oracle: and %d: %w", k, err)
		}
		d1, err := delta()
		if err != nil {
			return nil, fmt.Errorf("oracle: and %d: %w", k, err)
		}
		if d0 == 0 || d0 > lhs || d1 > lhs-d0 {
			return nil, fmt.Errorf("oracle: and %d: deltas %d,%d not topological", k, d0, d1)
		}
		c.ands[k] = [2]uint32{lhs - d0, lhs - d0 - d1}
	}
	return c, nil
}

// depth is the number of AND levels on the longest input-to-output path.
func (c *circuit) depth() int {
	lv := make([]int32, c.pis+1+len(c.ands))
	for k, f := range c.ands {
		lv[c.pis+1+k] = 1 + max(lv[f[0]>>1], lv[f[1]>>1])
	}
	var d int32
	for _, o := range c.outs {
		d = max(d, lv[o>>1])
	}
	return int(d)
}

// sim evaluates 64 input patterns at once: bit b of pi[k] is input k's
// value in pattern b. val is scratch of at least pis+1+len(ands) words.
func (c *circuit) sim(pi, val, out []uint64) {
	val[0] = 0
	copy(val[1:], pi)
	word := func(l uint32) uint64 {
		return val[l>>1] ^ -uint64(l&1)
	}
	for k, f := range c.ands {
		val[c.pis+1+k] = word(f[0]) & word(f[1])
	}
	for k, o := range c.outs {
		out[k] = word(o)
	}
}

// simRounds is the oracle's random screen: 64 rounds of 64 patterns.
const simRounds = 64

// exhaustiveLimit is the input count up to which the oracle enumerates
// every assignment instead of sampling.
const exhaustiveLimit = 16

// equivalent reports whether two circuits agree on every pattern the
// oracle tries, and whether those patterns were all 2^pis of them (a
// proof) or the random screen. Inputs and outputs correspond by position.
func equivalent(a, b *circuit, seed int64) (equal, proved bool) {
	if a.pis != b.pis || len(a.outs) != len(b.outs) {
		return false, true
	}
	pi := make([]uint64, a.pis)
	va := make([]uint64, a.pis+1+len(a.ands))
	vb := make([]uint64, b.pis+1+len(b.ands))
	oa := make([]uint64, len(a.outs))
	ob := make([]uint64, len(b.outs))
	same := func() bool {
		a.sim(pi, va, oa)
		b.sim(pi, vb, ob)
		for k := range oa {
			if oa[k] != ob[k] {
				return false
			}
		}
		return true
	}
	if a.pis <= exhaustiveLimit {
		// The low six inputs cycle through all 64 combinations inside
		// one word; the remaining inputs are constant per word.
		low := [6]uint64{0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
			0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000}
		for w := 0; w < 1<<max(a.pis-6, 0); w++ {
			for k := range pi {
				if k < 6 {
					pi[k] = low[k]
				} else {
					pi[k] = -uint64(w >> (k - 6) & 1)
				}
			}
			if !same() {
				return false, true
			}
		}
		return true, true
	}
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < simRounds; r++ {
		for k := range pi {
			pi[k] = rng.Uint64()
		}
		if !same() {
			return false, true
		}
	}
	return true, false
}

// differsOn reports whether the two circuits disagree on one concrete
// input assignment — the replay of a counterexample a checker claims.
func differsOn(a, b *circuit, assignment []bool) bool {
	if len(assignment) != a.pis || a.pis != b.pis || len(a.outs) != len(b.outs) {
		return false
	}
	pi := make([]uint64, a.pis)
	for k, v := range assignment {
		if v {
			pi[k] = 1
		}
	}
	oa := make([]uint64, len(a.outs))
	ob := make([]uint64, len(b.outs))
	a.sim(pi, make([]uint64, a.pis+1+len(a.ands)), oa)
	b.sim(pi, make([]uint64, b.pis+1+len(b.ands)), ob)
	for k := range oa {
		if (oa[k]^ob[k])&1 != 0 {
			return true
		}
	}
	return false
}

// flipOutput returns a copy of a binary AIGER file with output k
// complemented: a pair the oracle knows to be inequivalent.
func flipOutput(data []byte, k int) ([]byte, error) {
	c, err := parseAIGER(data)
	if err != nil {
		return nil, err
	}
	if k >= len(c.outs) {
		return nil, fmt.Errorf("oracle: no output %d", k)
	}
	// Re-emit header and outputs, keep the AND section bytes as they are.
	lines := bytes.SplitAfterN(data, []byte("\n"), len(c.outs)+2)
	var buf bytes.Buffer
	buf.Write(lines[0])
	for j, o := range c.outs {
		if j == k {
			o ^= 1
		}
		fmt.Fprintf(&buf, "%d\n", o)
	}
	buf.Write(lines[len(lines)-1])
	return buf.Bytes(), nil
}
