package qasm

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"cloudqc/internal/circuit"
	"cloudqc/internal/qlib"
)

// parseMismatch returns how Parse and refParse differ on src, or ""
// when both return the same error text or the same circuit: the same
// register size and, gate by gate, the same name, kind, qubits and
// parameter bits.
func parseMismatch(src string) string {
	got, err := Parse("diff", src)
	want, refErr := refParse("diff", src)
	if err != nil || refErr != nil {
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			return fmt.Sprintf("error %v, reference %v", err, refErr)
		}
		return ""
	}
	if got.NumQubits() != want.NumQubits() || got.Len() != want.Len() {
		return fmt.Sprintf("%d qubits, %d gates; reference %d, %d",
			got.NumQubits(), got.Len(), want.NumQubits(), want.Len())
	}
	for i, g := range got.Gates() {
		w := want.Gates()[i]
		if g.Name != w.Name || g.Kind != w.Kind || g.Qubits != w.Qubits ||
			math.Float64bits(g.Param) != math.Float64bits(w.Param) {
			return fmt.Sprintf("gate %d: %+v, reference %+v", i, g, w)
		}
	}
	return ""
}

// handCases exercise the statement splitting and dispatch that the
// qlib templates never reach.
var handCases = []string{
	"qreg q[2];\r\nh q[0];\r\ncx q[0],q[1];\r\n",
	"qreg\tq[2];\th\tq[0];\tcx\tq[0],\tq[1];",
	"qreg q[2];; h q[0];;\n;;cx q[0],q[1];;",
	"qreg q[2]; h q[0]; // cx q[0],q[1];\nx q[1]; //",
	"qreg q[2]\nh q[0]",
	"qreg q[3]; h q[0]; measure q -> c;",
	"qreg q[3]; measure q;",
	"qreg q[3]; measure q[1];",
	"qreg q[3]; measure q[5] -> c[5];",
	"qreg q[1]; rz( - pi / 2 ) q[0];",
	"qreg q[2]; cp ( 3 * pi / 8 ) q[0], q[1];",
	"qreg q[1]; rz(+0.25) q[0]; rx(1e-3*pi) q[0]; u1(-2*pi/3) q[0];",
	"qreg q[1]; rz(pi/2 q[0];",
	"qreg q[1]; rz(pi/2)) q[0];",
	"qreg q[1]; rz(pi/) q[0];",
	"qreg q[1]; rz(*pi) q[0];",
	"qreg q[1]; rz() q[0];",
	"qreg q[1]; cregs q[0];",
	"qreg q[1]; includes x;",
	"qreg q[1]; barriers q;",
	"qreg q[1]; OPENQASM3;",
	"qreg q[1]; measurement q[0];",
	"qreg q[1]; qregs p[1];",
	"qregs q[1];",
	"qreg q[1]; creg; barrier; include; OPENQASM; h q[0];",
	"OPENQASM\t2.0; include\u00a0\"x\"; qreg\u2003q[1]; creg\vc[1]; measure\fq[0] -> c[0];",
	"qreg q[1]; measure\u00a0q;",
	"qreg q[1]; creg\xa0c[1];",
	"qreg q[3]; cx q[0],q[1],q[2];",
	"qreg q[3]; h q[0],q[1],q[2];",
	"qreg q[3]; cx q[0],q[1],r[2];",
	"qreg q[3]; ccx q[0],q[1],q[2];",
	"qreg q[3]; ccx q[0],q[1],q[9];",
	"qreg q[3]; cx q[0],,q[1];",
	"qreg q[3]; cx q[0],q[1],;",
	"qreg q[3]; cx q[0] q[1];",
	"qreg q[3]; h  q[0] ;  x q[ 1 ] ;\tz q [2];",
	"qreg q[3]; frob(banana) q[0],;",
	"qreg q[3]; frob(banana) q[7];",
	"qreg q[3]; h(pi) q[0];",
	"qreg q[3]; h q[-1];",
	"qreg q[0];",
	"qreg q[3]; qreg q[3];",
	"h q[0]; qreg q[1];",
	"measure q[0]; qreg q[1];",
	"qreg q[2]; x q[0]; \u00e9 q[1];",
}

// TestParseMatchesReference: Parse agrees with refParse on every qlib
// template as Write renders it, on every TestParseErrors source and on
// handCases.
func TestParseMatchesReference(t *testing.T) {
	var srcs []string
	for _, name := range qlib.Names() {
		c, err := qlib.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, Write(c))
	}
	for _, tc := range errorCases {
		srcs = append(srcs, tc.src)
	}
	srcs = append(srcs, handCases...)
	srcs = append(srcs, sample)
	for _, src := range srcs {
		if d := parseMismatch(src); d != "" {
			t.Errorf("%s\nsource: %.200q", d, src)
		}
	}
}

// pinnedGate returns the index of the first gate of c whose name lies
// in src's bytes, or -1 when none does.
func pinnedGate(c *circuit.Circuit, src string) int {
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	hi := lo + uintptr(len(src))
	for i, g := range c.Gates() {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(g.Name))); p >= lo && p < hi {
			return i
		}
	}
	return -1
}

// TestParsedCircuitDoesNotPinSource: no gate name of a parsed circuit
// points into the submission text, so a long-lived circuit does not keep
// its source alive. The check itself must catch refParse, whose names
// are substrings of the source.
func TestParsedCircuitDoesNotPinSource(t *testing.T) {
	for _, name := range qlib.Names() {
		c, err := qlib.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		src := Write(c)
		parsed, err := Parse(name, src)
		if err != nil {
			t.Fatal(err)
		}
		if i := pinnedGate(parsed, src); i >= 0 {
			t.Fatalf("%s: gate %d name %q points into the source", name, i, parsed.Gates()[i].Name)
		}
	}
	src := Write(qlib.GHZ(4))
	ref, err := refParse("ghz", src)
	if err != nil {
		t.Fatal(err)
	}
	if pinnedGate(ref, src) < 0 {
		t.Fatal("pinnedGate found no gate of refParse pointing into its source")
	}
}

// refParse is the line-splitting parser Parse replaced, kept as the
// oracle for TestParseMatchesReference and FuzzParseMatchesReference:
// for every source both must return the same circuit or the same error
// text. It splits the source into lines and statements with
// strings.Split and every gate statement into an operand slice, and its
// gate names are substrings of the source.
func refParse(name, src string) (*circuit.Circuit, error) {
	p := &refParser{name: name}
	for lineNum, raw := range strings.Split(src, "\n") {
		line := refStripComment(raw)
		for _, stmt := range strings.Split(line, ";") {
			stmt = strings.TrimSpace(stmt)
			if stmt == "" {
				continue
			}
			if err := p.statement(stmt); err != nil {
				return nil, fmt.Errorf("%w: line %d: %q: %v", ErrSyntax, lineNum+1, stmt, err)
			}
			if p.circ != nil && p.circ.Len() > maxGates {
				return nil, fmt.Errorf("%w: line %d: circuit exceeds %d gates", ErrSyntax, lineNum+1, maxGates)
			}
		}
	}
	if p.circ == nil {
		return nil, fmt.Errorf("%w: no qreg declaration", ErrSyntax)
	}
	return p.circ, nil
}

func refStripComment(line string) string {
	if i := strings.Index(line, "//"); i >= 0 {
		return line[:i]
	}
	return line
}

type refParser struct {
	name string
	circ *circuit.Circuit
	qreg string
}

// statement dispatches on the statement's first white-space separated
// field.
func (p *refParser) statement(stmt string) error {
	switch strings.Fields(stmt)[0] {
	case "OPENQASM", "include", "creg", "barrier":
		return nil
	case "qreg":
		return p.qregDecl(stmt)
	case "measure":
		return p.measure(stmt)
	default:
		return p.gate(stmt)
	}
}

func (p *refParser) qregDecl(stmt string) error {
	if p.circ != nil {
		return errors.New("multiple qreg declarations")
	}
	// qreg q[70]
	rest := strings.TrimSpace(strings.TrimPrefix(stmt, "qreg"))
	name, size, err := refRegRef(rest)
	if err != nil {
		return err
	}
	if size <= 0 || size > maxQubits {
		return fmt.Errorf("qreg size %d outside [1, %d]", size, maxQubits)
	}
	p.qreg = name
	p.circ = circuit.New(p.name, size)
	return nil
}

func (p *refParser) measure(stmt string) error {
	if p.circ == nil {
		return errors.New("measure before qreg")
	}
	// measure q[3] -> c[3]   (also: measure q -> c)
	rest := strings.TrimSpace(strings.TrimPrefix(stmt, "measure"))
	parts := strings.SplitN(rest, "->", 2)
	src := strings.TrimSpace(parts[0])
	if src == p.qreg { // whole-register measure
		p.circ.MeasureAll()
		return nil
	}
	q, err := p.qubit(src)
	if err != nil {
		return err
	}
	p.circ.Append(circuit.M(q))
	return nil
}

func (p *refParser) gate(stmt string) error {
	if p.circ == nil {
		return errors.New("gate before qreg")
	}
	head, args, err := refSplitGate(stmt)
	if err != nil {
		return err
	}
	gname, param, err := refGateHead(head)
	if err != nil {
		return err
	}
	qs := make([]int, len(args))
	for i, a := range args {
		if qs[i], err = p.qubit(a); err != nil {
			return err
		}
	}
	g, err := refMakeGate(gname, param, qs)
	if err != nil {
		return err
	}
	p.circ.Append(g)
	return nil
}

// refSplitGate separates "rz(pi/2) q[0]" into head "rz(pi/2)" and operand
// list ["q[0]"].
func refSplitGate(stmt string) (head string, args []string, err error) {
	// The head ends at the first space that is outside parentheses.
	depth := 0
	cut := -1
	for i, r := range stmt {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case ' ', '\t':
			if depth == 0 {
				cut = i
			}
		}
		if cut >= 0 {
			break
		}
	}
	if cut < 0 {
		return "", nil, errors.New("missing gate operands")
	}
	head = strings.TrimSpace(stmt[:cut])
	for _, a := range strings.Split(stmt[cut:], ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return "", nil, errors.New("empty operand")
		}
		args = append(args, a)
	}
	return head, args, nil
}

func refGateHead(head string) (name string, param float64, err error) {
	if i := strings.IndexByte(head, '('); i >= 0 {
		if !strings.HasSuffix(head, ")") {
			return "", 0, errors.New("unbalanced parameter parentheses")
		}
		name = strings.TrimSpace(head[:i])
		param, err = refEvalExpr(head[i+1 : len(head)-1])
		if err != nil {
			return "", 0, err
		}
		return name, param, nil
	}
	return head, 0, nil
}

func refMakeGate(name string, param float64, qs []int) (circuit.Gate, error) {
	need := func(n int) error {
		if len(qs) != n {
			return fmt.Errorf("gate %s needs %d qubits, got %d", name, n, len(qs))
		}
		return nil
	}
	switch name {
	case "h", "x", "y", "z", "s", "sdg", "t", "tdg", "id", "u1", "u2", "u3", "rx", "ry", "rz", "p", "u":
		if err := need(1); err != nil {
			return circuit.Gate{}, err
		}
		return circuit.Gate{Name: name, Kind: circuit.Single, Qubits: [2]int{qs[0], -1}, Param: param}, nil
	case "cx", "cz", "cy", "ch", "swap", "cp", "cu1", "crz", "rzz":
		if err := need(2); err != nil {
			return circuit.Gate{}, err
		}
		if qs[0] == qs[1] {
			return circuit.Gate{}, fmt.Errorf("gate %s with identical qubits %d", name, qs[0])
		}
		return circuit.Gate{Name: name, Kind: circuit.Two, Qubits: [2]int{qs[0], qs[1]}, Param: param}, nil
	default:
		return circuit.Gate{}, fmt.Errorf("unsupported gate %q", name)
	}
}

func (p *refParser) qubit(ref string) (int, error) {
	name, idx, err := refRegRef(ref)
	if err != nil {
		return 0, err
	}
	if name != p.qreg {
		return 0, fmt.Errorf("unknown register %q", name)
	}
	if idx < 0 || idx >= p.circ.NumQubits() {
		return 0, fmt.Errorf("qubit index %d out of range", idx)
	}
	return idx, nil
}

// refRegRef parses "q[12]" into ("q", 12).
func refRegRef(s string) (string, int, error) {
	open := strings.IndexByte(s, '[')
	if open < 0 || !strings.HasSuffix(s, "]") {
		return "", 0, fmt.Errorf("malformed register reference %q", s)
	}
	name := strings.TrimSpace(s[:open])
	n, err := strconv.Atoi(strings.TrimSpace(s[open+1 : len(s)-1]))
	if err != nil {
		return "", 0, fmt.Errorf("malformed register index in %q", s)
	}
	return name, n, nil
}

// refEvalExpr evaluates the limited parameter grammar: optional sign, an
// optional coefficient, "pi", optional "/denominator", or a bare number.
// Examples: "pi/2", "-pi/4", "2*pi", "0.78539", "3*pi/8".
func refEvalExpr(s string) (float64, error) {
	s = strings.ReplaceAll(s, " ", "")
	if s == "" {
		return 0, errors.New("empty parameter")
	}
	sign := 1.0
	if s[0] == '-' {
		sign = -1
		s = s[1:]
	} else if s[0] == '+' {
		s = s[1:]
	}
	num, den := 1.0, 1.0
	if i := strings.IndexByte(s, '/'); i >= 0 {
		d, err := strconv.ParseFloat(s[i+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("bad denominator in %q", s)
		}
		den = d
		s = s[:i]
	}
	if i := strings.IndexByte(s, '*'); i >= 0 {
		k, err := strconv.ParseFloat(s[:i], 64)
		if err != nil {
			return 0, fmt.Errorf("bad coefficient in %q", s)
		}
		num = k
		s = s[i+1:]
	}
	switch {
	case s == "pi":
		num *= math.Pi
	case s == "":
		return 0, errors.New("dangling operator")
	default:
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("bad parameter %q", s)
		}
		num *= v
	}
	if den == 0 {
		return 0, errors.New("division by zero in parameter")
	}
	return sign * num / den, nil
}
