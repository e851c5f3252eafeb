package fed

import (
	"fmt"

	"cloudqc/internal/cloud"
	"cloudqc/internal/graph"
	"cloudqc/internal/partition"
)

// PartitionClouds splits one QPU topology into n shard clouds with the
// multilevel k-way partitioner (min edge cut, balanced part sizes):
// each part's induced subgraph becomes its own cloud with uniform
// per-QPU capacities. A part whose induced subgraph comes out
// disconnected (the partitioner minimizes cut weight, not
// connectivity) is bridged with unit-weight links between its
// components, so every shard cloud satisfies the controller's
// connectivity expectations.
//
// The same inputs always produce the same clouds (the partitioner is
// seeded). Partitioning the paper's 20-QPU cloud in 4 gives shards of
// ~5 QPUs each — total capacity is conserved, per-shard capacity is
// not, so wide circuits may only fit on some (or no) shards; the
// admission router checks fit before offering a shard a job.
func PartitionClouds(topo *graph.Graph, n, computing, comm int, imbalance float64, seed int64) ([]*cloud.Cloud, error) {
	res, err := partition.KWay(topo, n, imbalance, seed)
	if err != nil {
		return nil, fmt.Errorf("fed: partitioning topology: %w", err)
	}
	parts := make([][]int, n)
	for v, p := range res.Parts {
		parts[p] = append(parts[p], v)
	}
	clouds := make([]*cloud.Cloud, n)
	for p, verts := range parts {
		if len(verts) == 0 {
			return nil, fmt.Errorf("fed: partition left shard %d empty (topology has %d QPUs for %d shards)",
				p, topo.N(), n)
		}
		sub, _ := topo.Subgraph(verts)
		clouds[p] = cloud.New(bridge(sub), computing, comm)
	}
	return clouds, nil
}

// bridge returns a connected copy of g: each component's lowest-index
// vertex is chained to the next component's with a unit-weight edge —
// the minimal, deterministic repair.
func bridge(g *graph.Graph) *graph.Graph {
	comps, edges := g.Components(), g.Edges()
	for i := 1; i < len(comps); i++ {
		edges = append(edges, graph.Edge{U: comps[i-1][0], V: comps[i][0], W: 1})
	}
	return graph.Build(g.N(), edges)
}
