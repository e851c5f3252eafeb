package core

import (
	"fmt"
	"math"
	"testing"

	"cloudqc/internal/cloud"
	"cloudqc/internal/epr"
	"cloudqc/internal/graph"
)

// TestRoundSuccessTableMatchesModel: every entry of the controller's
// RoundSuccess table has the same bits as the model's call, for pair
// counts up to the largest Comm, and counts past it (or below zero)
// fall back to the call.
func TestRoundSuccessTableMatchesModel(t *testing.T) {
	models := map[string]epr.Model{"default": epr.DefaultModel()}
	for _, p := range []float64{0.1, 1, 1e-9} {
		m := epr.DefaultModel()
		m.SuccessProb = p
		models[fmt.Sprintf("p=%v", p)] = m
	}
	for name, m := range models {
		cl := cloud.New(graph.Path(3), 10, 5)
		cl.QPU(1).Comm = 40
		lc, err := NewLiveController(Config{Cloud: cl, Model: m})
		if err != nil {
			t.Fatal(err)
		}
		if len(lc.succ) != 41 {
			t.Fatalf("%s: table has %d entries, want 41 (pair counts 0..40)", name, len(lc.succ))
		}
		for k := -2; k <= 60; k++ {
			got, want := lc.roundSuccess(k), m.RoundSuccess(k)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: roundSuccess(%d) = %v, RoundSuccess = %v", name, k, got, want)
			}
		}
	}
}
