package qasm

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"cloudqc/internal/circuit"
)

const sample = `
OPENQASM 2.0;
include "qelib1.inc";
// a tiny bell pair
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
`

func TestParseBell(t *testing.T) {
	c, err := Parse("bell", sample)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits() != 2 {
		t.Fatalf("NumQubits = %d, want 2", c.NumQubits())
	}
	oneQ, twoQ, ms := c.GateCount()
	if oneQ != 1 || twoQ != 1 || ms != 2 {
		t.Fatalf("GateCount = (%d,%d,%d), want (1,1,2)", oneQ, twoQ, ms)
	}
	if c.Name != "bell" {
		t.Fatalf("Name = %q", c.Name)
	}
}

func TestParseParameters(t *testing.T) {
	src := "qreg q[1]; rz(pi/2) q[0]; rx(-pi/4) q[0]; ry(2*pi) q[0]; rz(0.5) q[0];"
	c, err := Parse("params", src)
	if err != nil {
		t.Fatal(err)
	}
	gs := c.Gates()
	wants := []float64{math.Pi / 2, -math.Pi / 4, 2 * math.Pi, 0.5}
	for i, want := range wants {
		if got := gs[i].Param; math.Abs(got-want) > 1e-12 {
			t.Fatalf("gate %d param = %v, want %v", i, got, want)
		}
	}
}

func TestParseCompoundParam(t *testing.T) {
	c, err := Parse("x", "qreg q[2]; cp(3*pi/8) q[0],q[1];")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.Gates()[0].Param, 3*math.Pi/8; math.Abs(got-want) > 1e-12 {
		t.Fatalf("param = %v, want %v", got, want)
	}
}

func TestParseWholeRegisterMeasure(t *testing.T) {
	c, err := Parse("m", "qreg q[3]; h q[0]; measure q -> c;")
	if err != nil {
		t.Fatal(err)
	}
	_, _, ms := c.GateCount()
	if ms != 3 {
		t.Fatalf("measures = %d, want 3", ms)
	}
}

// errorCases are sources Parse must reject with ErrSyntax.
var errorCases = []struct {
	name, src string
}{
	{"no qreg", "h q[0];"},
	{"bad register", "qreg q[2]; h r[0];"},
	{"out of range", "qreg q[2]; h q[5];"},
	{"unknown gate", "qreg q[2]; frobnicate q[0];"},
	{"same qubit cx", "qreg q[2]; cx q[1],q[1];"},
	{"bad param", "qreg q[1]; rz(banana) q[0];"},
	{"div zero", "qreg q[1]; rz(pi/0) q[0];"},
	{"double qreg", "qreg q[1]; qreg p[1];"},
	{"missing operands", "qreg q[1]; h;"},
	{"bad index", "qreg q[x];"},
	// A keyword must end at white space or the end of the statement.
	{"creg prefix", "qreg q[1]; cregs q[0];"},
	{"include prefix", "qreg q[1]; includes x;"},
	{"barrier prefix", "qreg q[1]; barriers q;"},
	{"version prefix", "qreg q[1]; OPENQASM3;"},
	{"qreg prefix", "qreg q[1]; qregs p[1];"},
	{"measure prefix", "qreg q[1]; measurement q[0];"},
	{"empty", ""},
	// A whole-register measure appends one gate per qubit, so these
	// short sources would otherwise expand into 10^6 gates and ask
	// for about 10^11 bytes.
	{"huge qreg", "qreg q[100000];" + strings.Repeat(" measure q;", 10)},
	{"giant qreg", "qreg q[2000000000]; measure q;"},
	{"too many gates", fmt.Sprintf("qreg q[%d];", maxQubits) + strings.Repeat(" measure q;", maxGates/maxQubits+1)},
}

func TestParseErrors(t *testing.T) {
	for _, tc := range errorCases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse("bad", tc.src); !errors.Is(err, ErrSyntax) {
				t.Fatalf("Parse(%q) err = %v, want ErrSyntax", tc.src, err)
			}
		})
	}
}

// TestParseAtBounds: a register of maxQubits measured up to exactly
// maxGates gates still parses.
func TestParseAtBounds(t *testing.T) {
	src := fmt.Sprintf("qreg q[%d];", maxQubits) + strings.Repeat(" measure q;", maxGates/maxQubits)
	c, err := Parse("bound", src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != maxGates {
		t.Fatalf("gates = %d, want %d", c.Len(), maxGates)
	}
}

func TestParseIgnoresBarriersAndComments(t *testing.T) {
	src := "qreg q[2];\nbarrier q[0],q[1];\n// comment line\nh q[0]; // trailing\n"
	c, err := Parse("b", src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestWriteContainsHeader(t *testing.T) {
	c := circuit.New("w", 2)
	c.Append(circuit.H(0), circuit.CX(0, 1))
	out := Write(c)
	for _, want := range []string{"OPENQASM 2.0;", "qreg q[2];", "h q[0];", "cx q[0],q[1];"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Write output missing %q:\n%s", want, out)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	c := circuit.New("rt", 3)
	c.Append(
		circuit.H(0),
		circuit.RZ(1, math.Pi/3),
		circuit.CX(0, 1),
		circuit.CP(1, 2, math.Pi/8),
		circuit.Swap(0, 2),
		circuit.M(2),
	)
	parsed, err := Parse("rt", Write(c))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != c.Len() || parsed.NumQubits() != c.NumQubits() {
		t.Fatalf("round trip size mismatch: %d/%d vs %d/%d",
			parsed.Len(), parsed.NumQubits(), c.Len(), c.NumQubits())
	}
	for i, g := range c.Gates() {
		p := parsed.Gates()[i]
		if p.Name != g.Name || p.Kind != g.Kind || p.Qubits != g.Qubits {
			t.Fatalf("gate %d mismatch: %+v vs %+v", i, p, g)
		}
		if math.Abs(p.Param-g.Param) > 1e-12 {
			t.Fatalf("gate %d param %v vs %v", i, p.Param, g.Param)
		}
	}
}

// Property: random small circuits survive a Write/Parse round trip with
// identical structure.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		s := uint64(seed)
		next := func(n int) int {
			s = s*6364136223846793005 + 1442695040888963407
			return int(s>>33) % n
		}
		n := 2 + next(6)
		c := circuit.New("q", n)
		for i := 0; i < 25; i++ {
			a := next(n)
			b := next(n)
			switch next(4) {
			case 0:
				c.Append(circuit.H(a))
			case 1:
				c.Append(circuit.RZ(a, float64(next(100))/7))
			case 2:
				if a != b {
					c.Append(circuit.CX(a, b))
				}
			case 3:
				c.Append(circuit.M(a))
			}
		}
		parsed, err := Parse("q", Write(c))
		if err != nil {
			return false
		}
		if parsed.Len() != c.Len() {
			return false
		}
		for i, g := range c.Gates() {
			if parsed.Gates()[i].Qubits != g.Qubits {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
