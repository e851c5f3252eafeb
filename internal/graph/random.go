package graph

import "math/rand"

// Random returns an Erdős–Rényi G(n, p) graph with unit edge weights,
// repaired to be connected: after sampling, any disconnected component is
// attached to the growing giant component through a random vertex pair.
// The same (n, p, seed) always yields the same graph.
func Random(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, Edge{U: u, V: v, W: 1})
			}
		}
	}
	g := Build(n, edges)
	for comps := g.Components(); len(comps) > 1; comps = g.Components() {
		// Attach the second component to the first with one random
		// edge and rebuild.
		a := comps[0][rng.Intn(len(comps[0]))]
		b := comps[1][rng.Intn(len(comps[1]))]
		edges = append(edges, Edge{U: a, V: b, W: 1})
		g = Build(n, edges)
	}
	return g
}

// Ring returns a cycle over n vertices with unit weights (n >= 3), or a
// single edge for n == 2, or an edgeless graph for n < 2. Used as a
// deterministic topology in tests and examples.
func Ring(n int) *Graph {
	edges := pathEdges(n)
	if n >= 3 {
		edges = append(edges, Edge{U: n - 1, V: 0, W: 1})
	}
	return Build(n, edges)
}

// Path returns a path graph 0-1-...-(n-1) with unit weights.
func Path(n int) *Graph {
	return Build(n, pathEdges(n))
}

func pathEdges(n int) []Edge {
	var edges []Edge
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{U: i, V: i + 1, W: 1})
	}
	return edges
}

// Grid returns a rows×cols grid graph with unit weights; vertex (r, c)
// has index r*cols + c.
func Grid(rows, cols int) *Graph {
	var edges []Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				edges = append(edges, Edge{U: v, V: v + 1, W: 1})
			}
			if r+1 < rows {
				edges = append(edges, Edge{U: v, V: v + cols, W: 1})
			}
		}
	}
	return Build(rows*cols, edges)
}
