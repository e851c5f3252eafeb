package place

import (
	"errors"
	"slices"
	"sort"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/community"
	"cloudqc/internal/epr"
	"cloudqc/internal/graph"
	"cloudqc/internal/partition"
	"cloudqc/internal/plan"
)

// Config parameterizes the CloudQC placer. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// ImbalanceFactors is Algorithm 1's α sweep for the graph partitioner.
	ImbalanceFactors []float64
	// Model supplies latencies for the runtime estimate.
	Model epr.Model
	// Seed drives partitioner tie-breaking.
	Seed int64
	// RemoteOpsEpsilon, when positive, rejects candidate placements where
	// any QPU is endpoint of more than this many remote operations
	// (Eq. 6's R(V_j) <= ε constraint). Zero disables the constraint.
	RemoteOpsEpsilon int
	// UseBFS selects the CloudQC-BFS variant: feasible QPU sets are grown
	// by breadth-first search instead of community detection.
	UseBFS bool
}

// DefaultConfig returns the configuration used throughout the paper's
// evaluation.
func DefaultConfig() Config {
	return Config{
		ImbalanceFactors: []float64{0.05, 0.1, 0.2, 0.35, 0.5},
		Model:            epr.DefaultModel(),
		Seed:             1,
	}
}

// CloudQC is the paper's placement algorithm (Algorithm 1): sweep
// partition granularities and imbalance factors, map each candidate's
// parts onto a feasible QPU set found by community detection
// (Algorithm 2), score every candidate by estimated runtime and
// communication cost, and keep the best.
//
// Compile splits along the paper's seam. The circuit tier (partitions
// with the order and anchors their parts are mapped by, interaction
// edges) is memoized per circuit fingerprint across calls; a call that
// must partition builds one partition.Hierarchy for its whole sweep.
// The capacity tier splits the same way: the feasible QPU sets,
// their free sums and their centers depend only on the cloud's shape
// and free snapshot, so they are memoized per capacity state (except
// for -BFS, whose set depends on the circuit size); part mapping and
// scoring run per call. Both memos are plan.Caches of
// plan.DefaultCapacity entries. A CloudQC is safe for concurrent use.
type CloudQC struct {
	cfg Config
	// circuits is the circuit tier, keyed by fingerprint with no
	// snapshot.
	circuits *plan.Cache[circuit.Fingerprint, *circuitParts]
	// tiers is the capacity tier, keyed by capacity state and verified
	// against its free snapshot.
	tiers *plan.Cache[tierKey, *tierSets]
}

// NewCloudQC returns a CloudQC placer with the given configuration.
func NewCloudQC(cfg Config) *CloudQC {
	if len(cfg.ImbalanceFactors) == 0 {
		cfg.ImbalanceFactors = DefaultConfig().ImbalanceFactors
	}
	if cfg.Model.EPRAttempt == 0 {
		cfg.Model = epr.DefaultModel()
	}
	return &CloudQC{
		cfg:      cfg,
		circuits: plan.New[circuit.Fingerprint, *circuitParts](plan.DefaultCapacity),
		tiers:    plan.New[tierKey, *tierSets](plan.DefaultCapacity),
	}
}

// DeterministicPlacement marks CloudQC (and CloudQC-BFS) as cacheable:
// the partitioner and community detection seed their randomness per
// call from the configured seed, the circuit memo holds only what the
// circuit itself determines and the tier memo only what the capacity
// state determines, so Place is a pure function of (circuit,
// free-capacity state).
func (p *CloudQC) DeterministicPlacement() {}

// Name implements Placer.
func (p *CloudQC) Name() string {
	if p.cfg.UseBFS {
		return "CloudQC-BFS"
	}
	return "CloudQC"
}

// Place implements Placer (Algorithm 1).
func (p *CloudQC) Place(cl *cloud.Cloud, c *circuit.Circuit) (*Placement, error) {
	size := c.NumQubits()
	if size > cl.TotalFreeComputing() {
		return nil, &ErrInfeasible{Circuit: c.Name, Need: size, Free: cl.TotalFreeComputing()}
	}

	// Fast path: the whole circuit fits one QPU. Best fit: the feasible
	// QPU with the least leftover capacity, preserving large QPUs for
	// large future jobs (design objective 2, "dynamics in quantum cloud").
	if size <= cl.MaxFreeComputing() {
		best, leftover := -1, 0
		for i := 0; i < cl.NumQPUs(); i++ {
			free := cl.FreeComputing(i)
			if free < size {
				continue
			}
			if best < 0 || free-size < leftover {
				best, leftover = i, free-size
			}
		}
		assign := make([]int, size)
		for i := range assign {
			assign[i] = best
		}
		return &Placement{Circuit: c, QubitToQPU: assign}, nil
	}

	parts, ig := p.parts(c)
	tier := p.newCapacityTier(cl, size)
	// Each of a point's k parts takes a QPU of its own, so no partition
	// into fewer parts than tier.minQPUs(size) maps: the sweep starts
	// there, without partitioning below it or touching the memo for it.
	kMin := max(2, tier.minQPUs(size))
	kMax := min(feasibleQPUs(cl), size)
	lat := remoteLatencies(cl, p.cfg.Model)
	bounded := boundsTime(lat, p.cfg.Model)
	ready := make([]float64, size)
	var (
		h         *partition.Hierarchy // built on the first memo miss
		best      *Placement
		bestScore float64
	)
	alphas := p.cfg.ImbalanceFactors
	for i, alpha := range alphas {
		if !partition.ValidImbalance(alpha) {
			continue // the partitioner rejects it at every k
		}
		for k := kMin; k <= kMax; k++ {
			pt := sweepPoint{k: k, cap: partition.Capacity(size, k, alpha)}
			if sweptBefore(alphas[:i], size, pt) {
				continue // same partition, assignment and score: the first one stands
			}
			cd, seen := parts.result(pt)
			if !seen {
				if h == nil {
					if ig == nil {
						ig = c.InteractionGraph()
					}
					h = partition.NewHierarchy(ig, p.cfg.Seed)
				}
				// A rejected point stays nil, which is memoized too.
				if res, err := h.Partition(pt.k, pt.cap); err == nil {
					cd = newCandidate(parts.edges, res)
				}
				parts.record(pt, cd)
			}
			if cd == nil || !tier.fits(cd) {
				continue // the partitioner rejected pt, or mapParts would fail
			}
			if bounded && best != nil && !(Score(parts.tLocal, cd.cCut) > bestScore) {
				continue // scores at most bestScore: see boundsTime
			}
			assign, err := tier.mapParts(cd)
			if err != nil {
				continue
			}
			if eps := p.cfg.RemoteOpsEpsilon; eps > 0 {
				if exceedsRemoteEps(c, cl.NumQPUs(), assign, eps) {
					continue
				}
			}
			t := estimateTime(parts.prog, ready, cl, assign, lat)
			cost := commCostEdges(parts.edges, cl, assign)
			s := Score(t, cost)
			if best == nil || s > bestScore {
				best = &Placement{Circuit: c, QubitToQPU: assign}
				bestScore = s
			}
		}
	}
	if best == nil {
		return nil, &ErrInfeasible{Circuit: c.Name, Need: size, Free: cl.TotalFreeComputing()}
	}
	return best, nil
}

// sweptBefore reports whether one of the earlier imbalance factors
// alphas already put pt through this call's sweep: a valid factor with
// the same cap at pt.k partitions size qubits identically.
func sweptBefore(alphas []float64, size int, pt sweepPoint) bool {
	for _, a := range alphas {
		if partition.ValidImbalance(a) && partition.Capacity(size, pt.k, a) == pt.cap {
			return true
		}
	}
	return false
}

func feasibleQPUs(cl *cloud.Cloud) int {
	n := 0
	for i := 0; i < cl.NumQPUs(); i++ {
		if cl.FreeComputing(i) > 0 {
			n++
		}
	}
	return n
}

func exceedsRemoteEps(c *circuit.Circuit, numQPUs int, assign []int, eps int) bool {
	for _, r := range RemoteOpsPerQPU(c, numQPUs, assign) {
		if r > eps {
			return true
		}
	}
	return false
}

// errNoFit is mapParts' failure: some part fits on no unused QPU. The
// sweep simply moves on to its next candidate.
var errNoFit = errors.New("place: no QPU fits a part")

// capacityTier is what one Place call maps its (k, cap) candidates
// with: the capacity state's memoized QPU sets, plus the free snapshot,
// circuit size and mapping scratch of this call.
type capacityTier struct {
	*tierSets
	cl      *cloud.Cloud
	free    []int
	size    int
	useBFS  bool
	scratch []int
}

// newCapacityTier finds the feasible QPU sets for cl's current free
// state: community detection on the capacity-weighted cloud graph,
// memoized per capacity state, or the BFS-grown set for the -BFS
// variant, which depends on size and so is found afresh per call.
func (p *CloudQC) newCapacityTier(cl *cloud.Cloud, size int) *capacityTier {
	free := cl.FreeSnapshot()
	t := &capacityTier{cl: cl, free: free, size: size, useBFS: p.cfg.UseBFS}
	if p.cfg.UseBFS {
		t.tierSets = newTierSets(cl, free, [][]int{bfsQPUSet(cl, size)})
		return t
	}
	key := tierKey{cloud: cl.Signature(), free: cloud.FreeSignature(free)}
	var ok bool
	if t.tierSets, ok = p.tiers.Lookup(key, free); !ok {
		t.tierSets = newTierSets(cl, free, community.Detect(cl.CapacityGraph()).Groups)
		p.tiers.Insert(key, free, t.tierSets)
	}
	return t
}

// newTierSets appends the whole cloud to the candidate QPU sets groups
// and sums each set's free capacity and finds its center under the
// snapshot free. It also sorts the snapshot's free counts.
func newTierSets(cl *cloud.Cloud, free []int, groups [][]int) *tierSets {
	sets := append(groups, allQPUs(cl))
	ts := &tierSets{sets: sets, setFree: make([]int, len(sets)), centers: make([]int, len(sets))}
	for i, set := range sets {
		for _, q := range set {
			ts.setFree[i] += free[q]
		}
		sub, verts := cl.Topology().Subgraph(set)
		ts.centers[i] = verts[sub.Center()]
	}
	ts.freeDesc = descending(free)
	return ts
}

// descending returns a sorted copy of xs, largest first.
func descending(xs []int) []int {
	d := slices.Clone(xs)
	slices.SortFunc(d, func(a, b int) int { return b - a })
	return d
}

// minQPUs returns the fewest QPUs whose free counts sum to size or
// more. The snapshot must hold size free qubits in all.
func (ts *tierSets) minQPUs(size int) int {
	k, sum := 0, 0
	for ; sum < size; k++ {
		sum += ts.freeDesc[k]
	}
	return k
}

// fits reports whether cd's parts could go to distinct QPUs of the
// snapshot, each part on a QPU with room for it. mapParts maps every
// part to a QPU of its own with that much room, and the i largest
// parts then need i QPUs with room for the i-th largest: so a part
// larger than the free count at its rank fails every mapping.
func (ts *tierSets) fits(cd *candidate) bool {
	for i, s := range cd.sizesDesc {
		if s > ts.freeDesc[i] {
			return false
		}
	}
	return true
}

// setFor returns the index of the QPU set k parts map into: the BFS set
// for -BFS, else the tightest community with at least k QPUs and room
// for the circuit — it leaves the rest of the cloud contiguous for
// future jobs — or the whole cloud when no community qualifies.
func (t *capacityTier) setFor(k int) int {
	if t.useBFS {
		return 0
	}
	all := len(t.sets) - 1
	best := all
	for i, g := range t.sets[:all] {
		if len(g) < k || t.setFree[i] < t.size {
			continue
		}
		if best == all || t.setFree[i] < t.setFree[best] {
			best = i
		}
	}
	return best
}

// newCandidate computes the part-side half of Algorithm 2 for res: the
// part interaction graph (how strongly parts talk to each other), its
// BFS order from its center, and each part's anchor. edges is the
// circuit's interaction edge list. mapParts places the parts in order
// and gives up at the first part that fits nowhere, so when it maps
// order[i], exactly the parts order[:i] hold QPUs; the anchor, the
// heaviest of those neighbors, is therefore fixed by the partition.
//
// The part graph's weights are summed into a dense k×k matrix in edge
// order, as graph.Build sums parallel edges, and the graph is built
// from it in one pass. Interaction edges weigh at least one gate, so two parts
// are adjacent exactly when their entry is nonzero. The same pass sums
// the crossing weights, in edge order, into the candidate's cCut.
func newCandidate(edges []graph.Edge, res *partition.Result) *candidate {
	k := res.K
	w := make([]float64, k*k)
	var cut float64
	for _, e := range edges {
		if pu, pv := res.Parts[e.U], res.Parts[e.V]; pu != pv {
			w[pu*k+pv] += e.W
			w[pv*k+pu] += e.W
			cut += e.W
		}
	}
	pg := graph.FromMatrix(k, w)
	order := pg.BFSOrder(pg.Center())
	pos := make([]int, k) // index in order, -1 while unreached
	for i := range pos {
		pos[i] = -1
	}
	for i, pt := range order {
		pos[pt] = i
	}
	// Disconnected part graph: append the remaining parts in index
	// order so every part still gets mapped.
	for pt := 0; pt < k; pt++ {
		if pos[pt] < 0 {
			pos[pt] = len(order)
			order = append(order, pt)
		}
	}
	anchor := make([]int, k)
	for i, pt := range order {
		best, bestW := -1, 0.0
		for _, a := range pg.Arcs(pt) {
			if pos[a.To] < i && a.W > bestW {
				best, bestW = a.To, a.W
			}
		}
		anchor[i] = best
	}
	return &candidate{res: res, order: order, anchor: anchor, cCut: cut, sizesDesc: descending(res.Sizes)}
}

// mapParts is Algorithm 2: take the feasible QPU set for the
// candidate's K parts, map the part interaction graph's center to the
// QPU set's center, then expand outward in the candidate's order,
// placing each part on the feasible QPU closest to the QPU of its
// anchor part.
func (t *capacityTier) mapParts(cd *candidate) ([]int, error) {
	res := cd.res
	set := t.setFor(res.K)
	group, all := t.sets[set], t.sets[len(t.sets)-1]
	t.scratch = append(t.scratch[:0], t.free...)
	free := t.scratch
	partQPU := make([]int, res.K)
	used := make([]bool, t.cl.NumQPUs())
	center := t.centers[set]

	for i, part := range cd.order {
		anchor := center
		if a := cd.anchor[i]; a >= 0 {
			anchor = partQPU[a]
		}
		qpu := pickQPU(t.cl, group, used, free, res.Sizes[part], anchor)
		if qpu < 0 {
			// Community too small: retry against the whole cloud.
			qpu = pickQPU(t.cl, all, used, free, res.Sizes[part], anchor)
		}
		if qpu < 0 {
			return nil, errNoFit
		}
		partQPU[part] = qpu
		used[qpu] = true
		free[qpu] -= res.Sizes[part]
	}

	assign := make([]int, len(res.Parts))
	for qb, pt := range res.Parts {
		assign[qb] = partQPU[pt]
	}
	return assign, nil
}

// bfsQPUSet grows a QPU set by BFS from the freest QPU until the
// collected free capacity covers the circuit.
func bfsQPUSet(cl *cloud.Cloud, size int) []int {
	seed := 0
	for i := 1; i < cl.NumQPUs(); i++ {
		if cl.FreeComputing(i) > cl.FreeComputing(seed) {
			seed = i
		}
	}
	var set []int
	freeSum := 0
	for _, q := range cl.Topology().BFSOrder(seed) {
		if cl.FreeComputing(q) == 0 {
			continue
		}
		set = append(set, q)
		freeSum += cl.FreeComputing(q)
		if freeSum >= size {
			break
		}
	}
	sort.Ints(set)
	return set
}

func allQPUs(cl *cloud.Cloud) []int {
	out := make([]int, cl.NumQPUs())
	for i := range out {
		out[i] = i
	}
	return out
}

// pickQPU selects the unused candidate QPU with enough free capacity
// closest to anchor, breaking ties toward more free capacity then lower
// id.
func pickQPU(cl *cloud.Cloud, candidates []int, used []bool, free []int, need, anchor int) int {
	best, bestD, bestFree := -1, 0, 0
	for _, q := range candidates {
		if used[q] || free[q] < need {
			continue
		}
		d := cl.Distance(anchor, q)
		if d < 0 {
			continue
		}
		if best < 0 || d < bestD || (d == bestD && free[q] > bestFree) {
			best, bestD, bestFree = q, d, free[q]
		}
	}
	return best
}
