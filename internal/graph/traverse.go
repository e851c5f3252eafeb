package graph

// Every breadth-first search in this package is one call of search,
// which walks the sorted adjacency lists in place with an index-head
// queue: neighbours are visited in ascending index order, so results are
// deterministic. Callers hand it a queue with room for every vertex, so
// a search allocates only the slices its caller makes.

// search runs a breadth-first search from start. dist must hold −1
// everywhere on entry; search sets the hop distance of every vertex it
// reaches and, when parent is non-nil, its BFS-tree parent
// (parent[start] = start). It stops expanding once it has reached a
// vertex deeper than limit, so a limit of g.n or more searches the whole
// component. queue is scratch. search returns the last depth it reached,
// start's eccentricity when the search ran to the end, and the queue,
// which holds the reached vertices in BFS order.
func (g *Graph) search(start, limit int, dist, parent, queue []int) (int, []int) {
	dist[start] = 0
	if parent != nil {
		parent[start] = start
	}
	queue = append(queue[:0], start)
	depth := 0
	for head := 0; head < len(queue) && depth <= limit; head++ {
		u := queue[head]
		du := dist[u] + 1
		for _, a := range g.adj[u] {
			if dist[a.To] < 0 {
				dist[a.To] = du
				if parent != nil {
					parent[a.To] = u
				}
				depth = du
				queue = append(queue, a.To)
			}
		}
	}
	return depth, queue
}

// fill sets every element of s to v.
func fill(s []int, v int) {
	for i := range s {
		s[i] = v
	}
}

// BFSOrder returns the vertices reachable from start in breadth-first
// order. Neighbors are visited in ascending index order, so the result is
// deterministic.
func (g *Graph) BFSOrder(start int) []int {
	g.check(start)
	dist := make([]int, g.n)
	fill(dist, -1)
	_, order := g.search(start, g.n, dist, nil, make([]int, 0, g.n))
	return order
}

// HopDistances returns the unweighted shortest-path distance (hop count)
// from start to every vertex. Unreachable vertices get -1.
func (g *Graph) HopDistances(start int) []int {
	g.check(start)
	dist := make([]int, g.n)
	fill(dist, -1)
	g.search(start, g.n, dist, nil, make([]int, 0, g.n))
	return dist
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
	fill(s.dist, -1)
	_, s.queue = g.search(start, g.n, s.dist, nil, s.queue)
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
	fill(dist, -1)
	fill(parent, -1)
	g.search(start, g.n, dist, parent, make([]int, 0, g.n))
	return dist, parent
}

// ShortestPath returns one shortest path (by hops) from u to v inclusive,
// or nil if v is unreachable from u. Ties break toward lower vertex
// indices, so the result is deterministic.
func (g *Graph) ShortestPath(u, v int) []int {
	g.check(u)
	g.check(v)
	// One backing array holds dist, parent and the queue, so a query
	// allocates only it and the path.
	buf := make([]int, 3*g.n)
	dist, parent := buf[:g.n], buf[g.n:2*g.n]
	fill(dist, -1)
	g.search(u, g.n, dist, parent, buf[2*g.n:2*g.n])
	if dist[v] < 0 {
		return nil
	}
	path := make([]int, dist[v]+1)
	for x, i := v, dist[v]; i >= 0; x, i = parent[x], i-1 {
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
