package qasm

import (
	"math"
	"strings"
	"testing"

	"cloudqc/internal/circuit"
	"cloudqc/internal/qlib"
)

// fuzzSeeds is the seed corpus of both fuzz targets.
func fuzzSeeds() []string {
	seeds := []string{sample, "qreg q[100000];" + strings.Repeat(" measure q;", 10)}
	for _, c := range []*circuit.Circuit{qlib.GHZ(4), qlib.QFT(5), qlib.QAOA(6, 1, 1), qlib.Grover(6)} {
		seeds = append(seeds, Write(c))
	}
	return seeds
}

// FuzzQASMParse feeds arbitrary source to Parse, the parser behind the
// daemon's inline-QASM submissions. Parse must never panic, and any
// circuit it accepts must survive a Write/Parse round trip: the same
// register size and, gate by gate, the same name, kind, qubits and
// parameter, where Write emits one.
//
// Run it with: go test ./internal/qasm -run '^$' -fuzz FuzzQASMParse
func FuzzQASMParse(f *testing.F) {
	for _, src := range fuzzSeeds() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse("fuzz", src)
		if err != nil {
			return
		}
		out := Write(c)
		again, err := Parse("fuzz", out)
		if err != nil {
			t.Fatalf("written source does not parse: %v\n%s", err, out)
		}
		if again.NumQubits() != c.NumQubits() || again.Len() != c.Len() {
			t.Fatalf("round trip changed size: %d qubits, %d gates -> %d, %d",
				c.NumQubits(), c.Len(), again.NumQubits(), again.Len())
		}
		for i, g := range c.Gates() {
			h := again.Gates()[i]
			want := 0.0 // Write drops the parameter of unparameterized gates
			if parameterized(g.Name) {
				want = g.Param
			}
			sameParam := h.Param == want || (math.IsNaN(h.Param) && math.IsNaN(want))
			if h.Name != g.Name || h.Kind != g.Kind || h.Qubits != g.Qubits || !sameParam {
				t.Fatalf("gate %d changed in the round trip: %+v -> %+v", i, g, h)
			}
		}
	})
}

// FuzzParseMatchesReference feeds arbitrary source to Parse and to
// refParse, the line-splitting parser it replaced: both must return the
// same circuit or the same error text.
//
// Run it with: go test ./internal/qasm -run '^$' -fuzz FuzzParseMatchesReference
func FuzzParseMatchesReference(f *testing.F) {
	for _, src := range fuzzSeeds() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if d := parseMismatch(src); d != "" {
			t.Fatalf("%s\nsource: %q", d, src)
		}
	})
}
