package graph

// Every breadth-first search here walks the sorted adjacency lists in
// place with an index-head queue: neighbours are visited in ascending
// index order, so results are deterministic, and a search allocates only
// the slices it returns plus one queue.

// BFSOrder returns the vertices reachable from start in breadth-first
// order. Neighbors are visited in ascending index order, so the result is
// deterministic.
func (g *Graph) BFSOrder(start int) []int {
	g.check(start)
	visited := make([]bool, g.n)
	order := make([]int, 1, g.n)
	order[0] = start
	visited[start] = true
	// order doubles as the queue: it holds exactly the enqueued vertices.
	for head := 0; head < len(order); head++ {
		for _, a := range g.adj[order[head]] {
			if !visited[a.To] {
				visited[a.To] = true
				order = append(order, a.To)
			}
		}
	}
	return order
}

// HopDistances returns the unweighted shortest-path distance (hop count)
// from start to every vertex. Unreachable vertices get -1.
func (g *Graph) HopDistances(start int) []int {
	g.check(start)
	dist := make([]int, g.n)
	g.hops(start, dist, make([]int, 0, g.n))
	return dist
}

// hops fills dist with start's hop distances (-1 for unreachable) using
// queue as scratch, and returns the eccentricity of start together with
// the queue so callers can reuse its storage. len(dist) must be g.n.
func (g *Graph) hops(start int, dist, queue []int) (int, []int) {
	for i := range dist {
		dist[i] = -1
	}
	dist[start] = 0
	queue = append(queue[:0], start)
	ecc := 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u] + 1
		for _, a := range g.adj[u] {
			if dist[a.To] < 0 {
				dist[a.To] = du
				ecc = du
				queue = append(queue, a.To)
			}
		}
	}
	return ecc, queue
}

// HopScratch is reusable storage for repeated hop-distance searches:
// after the first search on a graph of a given size, further searches
// allocate nothing. The zero value is ready to use.
type HopScratch struct {
	dist, queue []int
}

// HopDistances is Graph.HopDistances into s's storage. The returned
// slice is valid until s is next used.
func (s *HopScratch) HopDistances(g *Graph, start int) []int {
	g.check(start)
	if cap(s.dist) < g.n {
		s.dist = make([]int, g.n)
		s.queue = make([]int, 0, g.n)
	}
	s.dist = s.dist[:g.n]
	_, s.queue = g.hops(start, s.dist, s.queue)
	return s.dist
}

// HopTree returns start's BFS distances together with the BFS-tree
// parent of every vertex (parent[start] = start; unreachable vertices
// get dist -1 and parent -1). Neighbors are visited in ascending index
// order, so walking parents from v back to start reproduces exactly the
// path ShortestPath(start, v) returns — callers that precompute one
// tree per vertex get ShortestPath answers by table walk instead of a
// fresh BFS per query (see cloud.Path).
func (g *Graph) HopTree(start int) (dist, parent []int) {
	g.check(start)
	dist = make([]int, g.n)
	parent = make([]int, g.n)
	for i := range dist {
		dist[i] = -1
		parent[i] = -1
	}
	dist[start] = 0
	parent[start] = start
	queue := make([]int, 1, g.n)
	queue[0] = start
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, a := range g.adj[u] {
			if dist[a.To] < 0 {
				dist[a.To] = dist[u] + 1
				parent[a.To] = u
				queue = append(queue, a.To)
			}
		}
	}
	return dist, parent
}

// ShortestPath returns one shortest path (by hops) from u to v inclusive,
// or nil if v is unreachable from u. Ties break toward lower vertex
// indices, so the result is deterministic.
func (g *Graph) ShortestPath(u, v int) []int {
	g.check(u)
	g.check(v)
	if u == v {
		return []int{u}
	}
	prev := make([]int, g.n)
	for i := range prev {
		prev[i] = -1
	}
	prev[u] = u
	queue := make([]int, 1, g.n)
	queue[0] = u
	for head := 0; head < len(queue) && prev[v] < 0; head++ {
		x := queue[head]
		for _, a := range g.adj[x] {
			if prev[a.To] < 0 {
				prev[a.To] = x
				queue = append(queue, a.To)
			}
		}
	}
	if prev[v] < 0 {
		return nil
	}
	n := 1
	for x := v; x != u; x = prev[x] {
		n++
	}
	path := make([]int, n)
	for x, i := v, n-1; i >= 0; x, i = prev[x], i-1 {
		path[i] = x
	}
	return path
}

// Connected reports whether the graph is connected. The empty graph and
// single-vertex graph are connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	return len(g.BFSOrder(0)) == g.n
}

// Components returns the connected components, each sorted ascending, in
// order of their smallest vertex.
func (g *Graph) Components() [][]int {
	visited := make([]bool, g.n)
	var comps [][]int
	for v := 0; v < g.n; v++ {
		if visited[v] {
			continue
		}
		comp := g.BFSOrder(v)
		for _, u := range comp {
			visited[u] = true
		}
		insertionSort(comp)
		comps = append(comps, comp)
	}
	return comps
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
