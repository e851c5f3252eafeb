package main

import (
	"errors"
	"math/rand"
	"time"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/place"
	"cloudqc/internal/sched"
)

// placeLayer is a timing decorator around the placement layer: every
// Placer.Place call the controller makes (plan-cache misses only — hits
// never reach the placer) is counted and timed from outside.
type placeLayer struct {
	inner      place.Placer
	calls      int
	infeasible int
	errs       int
	durs       []time.Duration
}

func (p *placeLayer) Name() string { return p.inner.Name() }

func (p *placeLayer) Place(cl *cloud.Cloud, c *circuit.Circuit) (*place.Placement, error) {
	t0 := time.Now()
	pl, err := p.inner.Place(cl, c)
	p.durs = append(p.durs, time.Since(t0))
	p.calls++
	if err != nil {
		var inf *place.ErrInfeasible
		if errors.As(err, &inf) {
			p.infeasible++
		} else {
			p.errs++
		}
	}
	return pl, err
}

// deterministicPlaceLayer forwards the DeterministicPlacement marker.
// Dropping it would silently disable the controller's plan cache (it
// engages only for deterministic placers) and change what is measured.
type deterministicPlaceLayer struct{ *placeLayer }

func (deterministicPlaceLayer) DeterministicPlacement() {}

// wrapPlacer returns the decorated placer, keeping the inner placer's
// determinism marker, plus the layer's counters.
func wrapPlacer(inner place.Placer) (place.Placer, *placeLayer) {
	pl := &placeLayer{inner: inner}
	if _, ok := inner.(place.DeterministicPlacer); ok {
		return deterministicPlaceLayer{pl}, pl
	}
	return pl, pl
}

// schedLayer is a timing decorator around the EPR-round allocation
// policy: one Allocate call per scheduling round.
type schedLayer struct {
	inner sched.Policy
	durs  []time.Duration
}

func (p *schedLayer) Name() string { return p.inner.Name() }

func (p *schedLayer) Allocate(reqs []sched.Request, budget []int, rng *rand.Rand) map[sched.NodeKey]int {
	t0 := time.Now()
	out := p.inner.Allocate(reqs, budget, rng)
	p.durs = append(p.durs, time.Since(t0))
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
