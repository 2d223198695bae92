package aig

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Clone returns a compact structural copy of the graph (dead slots
// squeezed out, IDs renumbered topologically).
func (a *AIG) Clone() *AIG {
	b := New(Options{CapacityHint: a.NumAnds() + a.NumPIs() + 1})
	b.Name = a.Name
	m := make([]Lit, a.Capacity())
	m[0] = LitFalse
	for _, pi := range a.PIs() {
		m[pi] = b.AddPI()
	}
	for _, id := range a.TopoOrder(nil) {
		n := a.N(id)
		if n.IsAnd() {
			m[id] = b.And(m[n.Fanin0().Node()].XorCompl(n.Fanin0().Compl()),
				m[n.Fanin1().Node()].XorCompl(n.Fanin1().Compl()))
		}
	}
	for _, po := range a.POs() {
		b.AddPO(m[po.Node()].XorCompl(po.Compl()))
	}
	return b
}

// Double appends a second copy of the network with fresh PIs and POs,
// reproducing ABC's "double" command, which the paper uses to scale the
// EPFL benchmarks ("_10xd" means doubled ten times). Doubling keeps the
// circuit's complexity per cone unchanged while multiplying its size.
func Double(a *AIG) *AIG {
	b := a.Clone()
	m := make([]Lit, a.Capacity())
	m[0] = LitFalse
	for _, pi := range a.PIs() {
		m[pi] = b.AddPI()
	}
	for _, id := range a.TopoOrder(nil) {
		n := a.N(id)
		if n.IsAnd() {
			m[id] = b.And(m[n.Fanin0().Node()].XorCompl(n.Fanin0().Compl()),
				m[n.Fanin1().Node()].XorCompl(n.Fanin1().Compl()))
		}
	}
	for _, po := range a.POs() {
		b.AddPO(m[po.Node()].XorCompl(po.Compl()))
	}
	return b
}

// DoubleN doubles the network n times.
func DoubleN(a *AIG, n int) *AIG {
	for i := 0; i < n; i++ {
		a = Double(a)
	}
	return a
}

// WriteASCII writes the network in the AIGER 1.9 ASCII format ("aag").
func (a *AIG) WriteASCII(w io.Writer) error {
	bw := bufio.NewWriter(w)
	vars, order := a.aigerNumbering()
	numAnds := len(order)
	fmt.Fprintf(bw, "aag %d %d 0 %d %d\n", a.NumPIs()+numAnds, a.NumPIs(), a.NumPOs(), numAnds)
	for i := range a.PIs() {
		fmt.Fprintf(bw, "%d\n", 2*(i+1))
	}
	for _, po := range a.POs() {
		fmt.Fprintf(bw, "%d\n", mapLit(po, vars))
	}
	for _, id := range order {
		n := a.N(id)
		fmt.Fprintf(bw, "%d %d %d\n", 2*vars[id], mapLit(n.Fanin0(), vars), mapLit(n.Fanin1(), vars))
	}
	if a.Name != "" {
		fmt.Fprintf(bw, "c\n%s\n", a.Name)
	}
	return bw.Flush()
}

// WriteBinary writes the network in the AIGER binary format ("aig").
func (a *AIG) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	vars, order := a.aigerNumbering()
	numAnds := len(order)
	fmt.Fprintf(bw, "aig %d %d 0 %d %d\n", a.NumPIs()+numAnds, a.NumPIs(), a.NumPOs(), numAnds)
	for _, po := range a.POs() {
		fmt.Fprintf(bw, "%d\n", mapLit(po, vars))
	}
	for _, id := range order {
		n := a.N(id)
		lhs := 2 * vars[id]
		r0 := mapLit(n.Fanin0(), vars)
		r1 := mapLit(n.Fanin1(), vars)
		if r0 < r1 {
			r0, r1 = r1, r0
		}
		writeLEB(bw, lhs-r0)
		writeLEB(bw, r0-r1)
	}
	if a.Name != "" {
		fmt.Fprintf(bw, "c\n%s\n", a.Name)
	}
	return bw.Flush()
}

// aigerNumbering assigns AIGER variable numbers: PIs get 1..I in order,
// AND nodes get I+1.. in topological order. It returns the per-node
// variable table and the AND order.
func (a *AIG) aigerNumbering() ([]uint, []int32) {
	vars := make([]uint, a.Capacity())
	v := uint(1)
	for _, pi := range a.PIs() {
		vars[pi] = v
		v++
	}
	var order []int32
	for _, id := range a.TopoOrder(nil) {
		if a.N(id).IsAnd() {
			vars[id] = v
			v++
			order = append(order, id)
		}
	}
	return vars, order
}

func mapLit(l Lit, vars []uint) uint {
	u := 2 * vars[l.Node()]
	if l.Compl() {
		u |= 1
	}
	return u
}

func writeLEB(w *bufio.Writer, x uint) {
	for x >= 0x80 {
		w.WriteByte(byte(x&0x7F | 0x80))
		x >>= 7
	}
	w.WriteByte(byte(x))
}

// maxHeaderCount bounds each AIGER header field. It is a sanity limit
// against malformed or adversarial headers whose counts would otherwise
// drive huge allocations or integer overflow; real circuits (even the
// paper's largest doubled benchmarks) stay far below it.
const maxHeaderCount = 1 << 32

// Read parses an AIGER file in either ASCII or binary format. Latches are
// not supported: rewriting is a combinational optimization.
//
// Read is hardened against malformed input: header counts are bounded,
// the variable table grows with the definitions actually present (so an
// oversized header cannot force a huge allocation), and every literal is
// validated — in range, defined before use, defined exactly once, never
// redefining the constant — so a corrupt file yields an error, never a
// panic or a structurally invalid network.
func Read(r io.Reader) (*AIG, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("aiger: reading header: %w", err)
	}
	fields := strings.Fields(header)
	if len(fields) < 6 {
		return nil, fmt.Errorf("aiger: short header %q", strings.TrimSpace(header))
	}
	format := fields[0]
	var m, i, l, o, n uint
	for k, dst := range []*uint{&m, &i, &l, &o, &n} {
		if _, err := fmt.Sscanf(fields[k+1], "%d", dst); err != nil {
			return nil, fmt.Errorf("aiger: bad header field %q: %w", fields[k+1], err)
		}
		if *dst > maxHeaderCount {
			return nil, fmt.Errorf("aiger: header count %d exceeds limit %d", *dst, uint(maxHeaderCount))
		}
	}
	if l != 0 {
		return nil, fmt.Errorf("aiger: %d latches present; only combinational networks are supported", l)
	}
	if i+n > m {
		return nil, fmt.Errorf("aiger: header claims %d inputs + %d ands > %d variables", i, n, m)
	}
	hint := m
	if hint > 1<<20 {
		hint = 1 << 20
	}
	a := New(Options{CapacityHint: int(hint) + 1})
	const undef = ^Lit(0)
	// The variable table grows as definitions arrive, so a header with a
	// huge M but a tiny body costs only what the body defines.
	lits := make([]Lit, 1, hint+1)
	lits[0] = LitFalse
	get := func(u uint) (Lit, error) {
		v := u / 2
		if v > m {
			return 0, fmt.Errorf("aiger: literal %d out of range", u)
		}
		if v >= uint(len(lits)) || lits[v] == undef {
			return 0, fmt.Errorf("aiger: variable %d used before definition", v)
		}
		return lits[v].XorCompl(u&1 == 1), nil
	}
	define := func(v uint, l Lit) error {
		if v == 0 || v > m {
			return fmt.Errorf("aiger: defined variable %d out of range", v)
		}
		for uint(len(lits)) <= v {
			lits = append(lits, undef)
		}
		if lits[v] != undef {
			return fmt.Errorf("aiger: variable %d defined twice", v)
		}
		lits[v] = l
		return nil
	}

	switch format {
	case "aag":
		readUint := func() (uint, error) {
			var u uint
			_, err := fmt.Fscan(br, &u)
			return u, err
		}
		for k := uint(0); k < i; k++ {
			u, err := readUint()
			if err != nil {
				return nil, fmt.Errorf("aiger: reading input %d: %w", k, err)
			}
			if u < 2 || u&1 == 1 {
				return nil, fmt.Errorf("aiger: invalid input literal %d", u)
			}
			if err := define(u/2, a.AddPI()); err != nil {
				return nil, err
			}
		}
		outLits := make([]uint, 0, capHint(o))
		for k := uint(0); k < o; k++ {
			u, err := readUint()
			if err != nil {
				return nil, fmt.Errorf("aiger: reading output %d: %w", k, err)
			}
			outLits = append(outLits, u)
		}
		for k := uint(0); k < n; k++ {
			var lhs, r0, r1 uint
			if _, err := fmt.Fscan(br, &lhs, &r0, &r1); err != nil {
				return nil, fmt.Errorf("aiger: reading AND %d: %w", k, err)
			}
			if lhs < 2 || lhs&1 == 1 {
				return nil, fmt.Errorf("aiger: invalid AND literal %d", lhs)
			}
			l0, err := get(r0)
			if err != nil {
				return nil, err
			}
			l1, err := get(r1)
			if err != nil {
				return nil, err
			}
			if err := define(lhs/2, a.And(l0, l1)); err != nil {
				return nil, err
			}
		}
		for _, u := range outLits {
			l, err := get(u)
			if err != nil {
				return nil, err
			}
			a.AddPO(l)
		}
	case "aig":
		// The binary format implies variable numbering, which only works
		// when the header is exact: M = I + L + A.
		if m != i+n {
			return nil, fmt.Errorf("aiger: binary header M=%d but I+L+A=%d", m, i+n)
		}
		for k := uint(0); k < i; k++ {
			if err := define(k+1, a.AddPI()); err != nil {
				return nil, err
			}
		}
		outLits := make([]uint, 0, capHint(o))
		for k := uint(0); k < o; k++ {
			line, err := br.ReadString('\n')
			if err != nil {
				return nil, fmt.Errorf("aiger: reading output %d: %w", k, err)
			}
			var u uint
			if _, err := fmt.Sscanf(strings.TrimSpace(line), "%d", &u); err != nil {
				return nil, fmt.Errorf("aiger: bad output literal %q: %w", strings.TrimSpace(line), err)
			}
			outLits = append(outLits, u)
		}
		for k := uint(0); k < n; k++ {
			lhs := 2 * (i + 1 + k)
			d0, err := readLEB(br)
			if err != nil {
				return nil, fmt.Errorf("aiger: reading AND %d: %w", k, err)
			}
			d1, err := readLEB(br)
			if err != nil {
				return nil, fmt.Errorf("aiger: reading AND %d: %w", k, err)
			}
			if d0 > lhs || d1 > lhs-d0 {
				return nil, fmt.Errorf("aiger: AND %d: delta exceeds literal %d", k, lhs)
			}
			r0 := lhs - d0
			r1 := r0 - d1
			l0, err := get(r0)
			if err != nil {
				return nil, err
			}
			l1, err := get(r1)
			if err != nil {
				return nil, err
			}
			if err := define(lhs/2, a.And(l0, l1)); err != nil {
				return nil, err
			}
		}
		for _, u := range outLits {
			l, err := get(u)
			if err != nil {
				return nil, err
			}
			a.AddPO(l)
		}
	default:
		return nil, fmt.Errorf("aiger: unknown format %q", format)
	}
	a.Name = readName(br)
	return a, nil
}

// capHint bounds a header-derived pre-allocation: the slice grows on
// demand beyond it, so a lying header cannot force a large up-front
// allocation.
func capHint(n uint) uint {
	if n > 4096 {
		return 4096
	}
	return n
}

// readName scans the optional symbol table and comment section for the
// design name (the first comment line, as written by WriteASCII).
func readName(br *bufio.Reader) string {
	inComment := false
	for {
		line, err := br.ReadString('\n')
		line = strings.TrimSpace(line)
		if inComment && line != "" {
			return line
		}
		if line == "c" {
			inComment = true
		}
		if err != nil {
			return ""
		}
	}
}

func readLEB(br *bufio.Reader) (uint, error) {
	var x uint
	var shift uint
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		if shift > 63 {
			return 0, fmt.Errorf("LEB128 value overflows 64 bits")
		}
		x |= uint(b&0x7F) << shift
		if b&0x80 == 0 {
			return x, nil
		}
		shift += 7
	}
}

// ReadFile reads an AIGER file from disk, ASCII or binary whatever its
// name (Read tells them apart by the header).
func ReadFile(path string) (*AIG, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	a, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if a.Name == "" {
		a.Name = path
	}
	return a, nil
}

// CheckOutputName reports whether WriteFile can write path: binary
// AIGER for ".aig", ASCII AIGER for ".aag", and nothing else.
func CheckOutputName(path string) error {
	switch filepath.Ext(path) {
	case ".aig", ".aag":
		return nil
	}
	return fmt.Errorf("%s: unsupported extension %q (want .aig or .aag)", path, filepath.Ext(path))
}

// WriteFile writes a circuit file: binary AIGER for ".aig", ASCII AIGER
// for ".aag". Any other name is an error, before the file is created.
func (a *AIG) WriteFile(path string) error {
	if err := CheckOutputName(path); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if filepath.Ext(path) == ".aig" {
		err = a.WriteBinary(f)
	} else {
		err = a.WriteASCII(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
