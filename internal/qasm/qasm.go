// Package qasm reads and writes the OpenQASM 2.0 subset that QASMBench
// circuits use: one quantum register, one classical register, the standard
// gate set (h, x, y, z, s, t, tdg, rx, ry, rz, cx, cz, cp/cu1, swap) and
// measure statements. Parameters are parsed as floating point expressions
// of the form [-]k*pi[/m] or plain numbers, which covers the benchmark
// suite.
package qasm

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"cloudqc/internal/circuit"
)

// ErrSyntax wraps all parse failures; use errors.Is to detect them.
var ErrSyntax = errors.New("qasm: syntax error")

// maxQubits and maxGates bound the circuit Parse builds, so a short
// source cannot expand into an arbitrarily large gate list: a
// whole-register measure appends one gate per qubit, at most maxQubits
// past the gate limit before Parse rejects the circuit. The largest
// benchmark circuit (qft_n160) has 160 qubits and 63,920 gates.
const (
	maxQubits = 1 << 12
	maxGates  = 1 << 18
)

// Parse converts OpenQASM 2.0 source into a circuit. The circuit name is
// taken from the caller since QASM has no name construct.
func Parse(name, src string) (*circuit.Circuit, error) {
	p := &parser{name: name}
	for lineNum, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
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

func stripComment(line string) string {
	if i := strings.Index(line, "//"); i >= 0 {
		return line[:i]
	}
	return line
}

type parser struct {
	name string
	circ *circuit.Circuit
	qreg string
}

func (p *parser) statement(stmt string) error {
	switch {
	case strings.HasPrefix(stmt, "OPENQASM"), strings.HasPrefix(stmt, "include"),
		strings.HasPrefix(stmt, "creg"), strings.HasPrefix(stmt, "barrier"):
		return nil
	case strings.HasPrefix(stmt, "qreg"):
		return p.qregDecl(stmt)
	case strings.HasPrefix(stmt, "measure"):
		return p.measure(stmt)
	default:
		return p.gate(stmt)
	}
}

func (p *parser) qregDecl(stmt string) error {
	if p.circ != nil {
		return errors.New("multiple qreg declarations")
	}
	// qreg q[70]
	rest := strings.TrimSpace(strings.TrimPrefix(stmt, "qreg"))
	name, size, err := regRef(rest)
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

func (p *parser) measure(stmt string) error {
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

func (p *parser) gate(stmt string) error {
	if p.circ == nil {
		return errors.New("gate before qreg")
	}
	head, args, err := splitGate(stmt)
	if err != nil {
		return err
	}
	gname, param, err := gateHead(head)
	if err != nil {
		return err
	}
	qs := make([]int, len(args))
	for i, a := range args {
		if qs[i], err = p.qubit(a); err != nil {
			return err
		}
	}
	g, err := makeGate(gname, param, qs)
	if err != nil {
		return err
	}
	p.circ.Append(g)
	return nil
}

// splitGate separates "rz(pi/2) q[0]" into head "rz(pi/2)" and operand
// list ["q[0]"].
func splitGate(stmt string) (head string, args []string, err error) {
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

func gateHead(head string) (name string, param float64, err error) {
	if i := strings.IndexByte(head, '('); i >= 0 {
		if !strings.HasSuffix(head, ")") {
			return "", 0, errors.New("unbalanced parameter parentheses")
		}
		name = strings.TrimSpace(head[:i])
		param, err = evalExpr(head[i+1 : len(head)-1])
		if err != nil {
			return "", 0, err
		}
		return name, param, nil
	}
	return head, 0, nil
}

func makeGate(name string, param float64, qs []int) (circuit.Gate, error) {
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

func (p *parser) qubit(ref string) (int, error) {
	name, idx, err := regRef(ref)
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

// regRef parses "q[12]" into ("q", 12).
func regRef(s string) (string, int, error) {
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

// evalExpr evaluates the limited parameter grammar: optional sign, an
// optional coefficient, "pi", optional "/denominator", or a bare number.
// Examples: "pi/2", "-pi/4", "2*pi", "0.78539", "3*pi/8".
func evalExpr(s string) (float64, error) {
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
