// Package workload defines the multi-tenant workload suites of the
// paper's evaluation (Sec. VI-D) and samples seeded job batches from
// them.
package workload

import (
	"fmt"
	"math/rand"

	"cloudqc/internal/circuit"
	"cloudqc/internal/core"
	"cloudqc/internal/qlib"
)

// Workload is a named pool of benchmark circuits that batches sample
// from with replacement.
type Workload struct {
	// Name labels the workload in reports ("Mixed", "QFT", ...).
	Name string
	// Circuits lists the qlib benchmark names in the pool.
	Circuits []string
}

// Mixed is the paper's mixed workload: assorted circuit families and
// widths.
func Mixed() Workload {
	return Workload{Name: "Mixed", Circuits: []string{
		"knn_n129", "qugan_n111", "qugan_n71", "qft_n63", "multiplier_n45", "multiplier_n75",
	}}
}

// QFT is the QFT-only workload at three widths.
func QFT() Workload {
	return Workload{Name: "QFT", Circuits: []string{"qft_n29", "qft_n63", "qft_n100"}}
}

// Qugan is the QuGAN-only workload at three widths.
func Qugan() Workload {
	return Workload{Name: "Qugan", Circuits: []string{"qugan_n39", "qugan_n71", "qugan_n111"}}
}

// Arithmetic is the adder/multiplier workload.
func Arithmetic() Workload {
	return Workload{Name: "Arithmetic", Circuits: []string{
		"adder_n64", "adder_n118", "multiplier_n45", "multiplier_n75",
	}}
}

// All returns the four evaluation workloads in paper order
// (Figs. 14-17).
func All() []Workload {
	return []Workload{Mixed(), QFT(), Qugan(), Arithmetic()}
}

// Batch samples `size` jobs uniformly with replacement, all arriving at
// time 0 (the paper's batch setting). Circuits are cached and shared
// between jobs — the execution pipeline never mutates them.
func (w Workload) Batch(size int, seed int64) ([]*core.Job, error) {
	if size <= 0 {
		return nil, fmt.Errorf("workload: non-positive batch size %d", size)
	}
	if len(w.Circuits) == 0 {
		return nil, fmt.Errorf("workload %q: empty circuit pool", w.Name)
	}
	rng := rand.New(rand.NewSource(seed))
	cache := make(map[string]*circuit.Circuit, len(w.Circuits))
	jobs := make([]*core.Job, 0, size)
	for i := 0; i < size; i++ {
		name := w.Circuits[rng.Intn(len(w.Circuits))]
		c, ok := cache[name]
		if !ok {
			built, err := qlib.Build(name)
			if err != nil {
				return nil, fmt.Errorf("workload %q: %w", w.Name, err)
			}
			c = built
			cache[name] = c
		}
		jobs = append(jobs, &core.Job{ID: i, Circuit: c})
	}
	return jobs, nil
}

// PoissonBatch samples `size` jobs with exponentially distributed
// inter-arrival times of the given mean, modeling the paper's "incoming
// job" mode where requests arrive sequentially.
func (w Workload) PoissonBatch(size int, meanInterarrival float64, seed int64) ([]*core.Job, error) {
	if meanInterarrival < 0 {
		return nil, fmt.Errorf("workload: negative interarrival %v", meanInterarrival)
	}
	jobs, err := w.Batch(size, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	t := 0.0
	for _, j := range jobs {
		j.Arrival = t
		t += float64(rng.ExpFloat64() * meanInterarrival)
	}
	return jobs, nil
}

// UniformBatch samples `size` jobs arriving at a deterministic constant
// rate: job i arrives at i*interarrival. It is the zero-variance arrival
// process the online experiments compare Poisson and bursty streams
// against.
func (w Workload) UniformBatch(size int, interarrival float64, seed int64) ([]*core.Job, error) {
	if interarrival < 0 {
		return nil, fmt.Errorf("workload: negative interarrival %v", interarrival)
	}
	jobs, err := w.Batch(size, seed)
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		j.Arrival = float64(i) * interarrival
	}
	return jobs, nil
}

// BurstyBatch samples `size` jobs arriving in bursts: groups of up to
// burstSize jobs land simultaneously, and consecutive bursts are
// separated by exponentially distributed gaps of the given mean. It
// models synchronized tenants (e.g. a shared deadline) stressing the
// admission queue harder than a Poisson stream of the same average rate.
func (w Workload) BurstyBatch(size, burstSize int, meanBurstGap float64, seed int64) ([]*core.Job, error) {
	if burstSize <= 0 {
		return nil, fmt.Errorf("workload: non-positive burst size %d", burstSize)
	}
	if meanBurstGap < 0 {
		return nil, fmt.Errorf("workload: negative burst gap %v", meanBurstGap)
	}
	jobs, err := w.Batch(size, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	t := 0.0
	for i, j := range jobs {
		if i > 0 && i%burstSize == 0 {
			t += float64(rng.ExpFloat64() * meanBurstGap)
		}
		j.Arrival = t
	}
	return jobs, nil
}

// DefaultBurstSize is the burst width Arrivals uses for the "bursty"
// process on streams wide enough to hold several such bursts.
const DefaultBurstSize = 4

// Arrivals samples `size` jobs whose arrival times follow the named
// process at the given mean inter-arrival time per job:
//
//	"poisson"  exponential inter-arrival gaps (PoissonBatch)
//	"uniform"  one job every meanInterarrival exactly (UniformBatch)
//	"bursty"   bursts of up to DefaultBurstSize simultaneous jobs, with
//	           burst gaps scaled so the long-run job rate matches
//	           (BurstyBatch); short streams shrink the burst so there
//	           are always at least two bursts — otherwise every job
//	           would land at t=0 and the rate parameter would be a
//	           silent no-op
//
// The empty string selects "poisson". All processes draw the same
// circuit sequence for a given seed, so they are directly comparable.
func (w Workload) Arrivals(process string, size int, meanInterarrival float64, seed int64) ([]*core.Job, error) {
	switch process {
	case "", "poisson":
		return w.PoissonBatch(size, meanInterarrival, seed)
	case "uniform":
		return w.UniformBatch(size, meanInterarrival, seed)
	case "bursty":
		width := DefaultBurstSize
		if m := (size + 1) / 2; width > m {
			width = m
		}
		if width < 1 {
			width = 1
		}
		return w.BurstyBatch(size, width, float64(width)*meanInterarrival, seed)
	default:
		return nil, fmt.Errorf("workload: unknown arrival process %q (want poisson, uniform, or bursty)", process)
	}
}
