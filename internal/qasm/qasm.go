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
	"unicode"
	"unicode/utf8"

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
//
// Parse walks the source once by byte offset: each line loses its "//"
// comment and splits at ';' into statements, and each non-blank
// statement is trimmed and parsed in place. Every piece is a substring
// of src, so a valid source allocates only the circuit and its gate
// list. Gate names are gateSpecs' string literals, so the circuit keeps
// no pointer into src.
func Parse(name, src string) (*circuit.Circuit, error) {
	// The gate list is presized to the number of ';', which counts every
	// statement that one ends: a gate statement appends one gate, and
	// only a whole-register measure appends more. The cap at maxGates
	// keeps the presize within what an accepted source can fill.
	p := parser{name: name, statements: min(strings.Count(src, ";"), maxGates)}
	for lineNum, rest, more := 1, src, true; more; lineNum++ {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		for semi := true; semi; {
			var stmt string
			stmt, line, semi = strings.Cut(line, ";")
			stmt = strings.TrimSpace(stmt)
			if stmt == "" {
				continue
			}
			if err := p.statement(stmt); err != nil {
				return nil, fmt.Errorf("%w: line %d: %q: %v", ErrSyntax, lineNum, stmt, err)
			}
			if p.circ != nil && p.circ.Len() > maxGates {
				return nil, fmt.Errorf("%w: line %d: circuit exceeds %d gates", ErrSyntax, lineNum, maxGates)
			}
		}
	}
	if p.circ == nil {
		return nil, fmt.Errorf("%w: no qreg declaration", ErrSyntax)
	}
	return p.circ, nil
}

type parser struct {
	name       string
	statements int // gate-list presize, from Parse
	circ       *circuit.Circuit
	qreg       string
}

// statement dispatches a trimmed, non-empty statement on its first
// word, so a keyword must be the whole statement or be followed by white
// space: "cregs q[0]" or "measurement q[0]" is read as a gate and
// rejected as an unsupported one.
func (p *parser) statement(stmt string) error {
	switch firstWord(stmt) {
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

// firstWord returns s up to its first white-space rune, as
// strings.TrimSpace defines white space.
func firstWord(s string) string {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c == ' ' || ('\t' <= c && c <= '\r') {
				return s[:i]
			}
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) {
			return s[:i]
		}
		i += n
	}
	return s
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
	p.circ.Grow(p.statements)
	return nil
}

func (p *parser) measure(stmt string) error {
	if p.circ == nil {
		return errors.New("measure before qreg")
	}
	// measure q[3] -> c[3]   (also: measure q -> c)
	rest := strings.TrimSpace(strings.TrimPrefix(stmt, "measure"))
	src, _, _ := strings.Cut(rest, "->")
	src = strings.TrimSpace(src)
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

// gate parses "rz(pi/2) q[0]" or "cx q[0],q[1]". The operand list is
// walked twice, so that an empty operand is reported before a bad head
// and a bad head before a bad qubit: first to count the operands and
// reject an empty one, then, after the head, to read each qubit in
// order. Only the first two qubits are kept; makeGate gets the true
// count for its arity check.
func (p *parser) gate(stmt string) error {
	if p.circ == nil {
		return errors.New("gate before qreg")
	}
	cut := headEnd(stmt)
	if cut < 0 {
		return errors.New("missing gate operands")
	}
	operands := stmt[cut:]
	n := 0
	for rest, more := operands, true; more; n++ {
		var a string
		a, rest, more = strings.Cut(rest, ",")
		if strings.TrimSpace(a) == "" {
			return errors.New("empty operand")
		}
	}
	gname, param, err := gateHead(strings.TrimSpace(stmt[:cut]))
	if err != nil {
		return err
	}
	var qs [2]int
	for i, rest, more := 0, operands, true; more; i++ {
		var a string
		a, rest, more = strings.Cut(rest, ",")
		q, err := p.qubit(strings.TrimSpace(a))
		if err != nil {
			return err
		}
		if i < len(qs) {
			qs[i] = q
		}
	}
	g, err := makeGate(gname, param, qs, n)
	if err != nil {
		return err
	}
	p.circ.Append(g)
	return nil
}

// headEnd returns the index of the first space or tab outside
// parentheses in a gate statement, where its head ("rz(pi/2)") ends, or
// -1 when there is none.
func headEnd(stmt string) int {
	depth := 0
	for i := 0; i < len(stmt); i++ {
		switch stmt[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ' ', '\t':
			if depth == 0 {
				return i
			}
		}
	}
	return -1
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

// gateSpec is a supported gate's name and kind.
type gateSpec struct {
	name string
	kind circuit.Kind
}

// gateSpecs maps each supported gate name to its spec. Its names are
// the string literals below, so a gate built from a spec shares no bytes
// with the source it was parsed from.
var gateSpecs = func() map[string]gateSpec {
	m := make(map[string]gateSpec)
	for _, n := range []string{"h", "x", "y", "z", "s", "sdg", "t", "tdg", "id", "u1", "u2", "u3", "rx", "ry", "rz", "p", "u"} {
		m[n] = gateSpec{n, circuit.Single}
	}
	for _, n := range []string{"cx", "cz", "cy", "ch", "swap", "cp", "cu1", "crz", "rzz"} {
		m[n] = gateSpec{n, circuit.Two}
	}
	return m
}()

// makeGate builds the named gate from its parameter and the first two
// of its n qubits.
func makeGate(name string, param float64, qs [2]int, n int) (circuit.Gate, error) {
	spec, ok := gateSpecs[name]
	if !ok {
		return circuit.Gate{}, fmt.Errorf("unsupported gate %q", name)
	}
	g := circuit.Gate{Name: spec.name, Kind: spec.kind, Qubits: qs, Param: param}
	if n != g.Arity() {
		return circuit.Gate{}, fmt.Errorf("gate %s needs %d qubits, got %d", name, g.Arity(), n)
	}
	if g.Kind == circuit.Single {
		g.Qubits[1] = -1
	} else if qs[0] == qs[1] {
		return circuit.Gate{}, fmt.Errorf("gate %s with identical qubits %d", name, qs[0])
	}
	return g, nil
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
