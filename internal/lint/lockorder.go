package lint

import (
	"fmt"
	"sort"
	"strings"
)

// passLockOrder reports potential deadlocks from the static lock-order
// graph (see lockgraph.go): any cross-class cycle in "acquires while
// holding" edges.
var passLockOrder = &Pass{
	Name: nameLockOrder,
	Doc:  "lock-order cycles across lock classes",
	Run:  runLockOrder,
}

func runLockOrder(m *Module) []Diag {
	g := m.lockGraph()
	var out []Diag

	// The cross-class graph must be acyclic. One diagnostic per
	// strongly connected component, anchored at the first edge of a
	// shortest cycle through its smallest class.
	adj := make(map[lockClass]map[lockClass]LockEdge)
	for _, e := range g.Edges {
		if adj[e.From] == nil {
			adj[e.From] = make(map[lockClass]LockEdge)
		}
		if _, ok := adj[e.From][e.To]; !ok {
			adj[e.From][e.To] = e
		}
	}
	for _, scc := range lockSCCs(adj) {
		if len(scc) < 2 {
			continue
		}
		sort.Slice(scc, func(i, j int) bool { return scc[i] < scc[j] })
		cycle := shortestCycle(adj, scc)
		if len(cycle) == 0 {
			continue
		}
		var b strings.Builder
		b.WriteString(string(cycle[0].From))
		for _, e := range cycle {
			p := m.Fset.Position(e.Pos)
			fmt.Fprintf(&b, " -> %s (%s:%d, in %s)", e.To, m.relFile(p.Filename), p.Line, funcLabel(e.Fn))
		}
		out = append(out, m.diagf(nameLockOrder, cycle[0].Pos,
			"lock-order cycle: %s; the lock hierarchy must be acyclic or these paths can deadlock", b.String()))
	}
	return out
}

// lockSCCs computes strongly connected components of the lock graph
// (iterative Tarjan; deterministic because roots are visited in sorted
// order).
func lockSCCs(adj map[lockClass]map[lockClass]LockEdge) [][]lockClass {
	nodes := make(map[lockClass]bool)
	for from, tos := range adj {
		nodes[from] = true
		for to := range tos {
			nodes[to] = true
		}
	}
	order := make([]lockClass, 0, len(nodes))
	for n := range nodes {
		order = append(order, n)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	index := make(map[lockClass]int)
	low := make(map[lockClass]int)
	onStack := make(map[lockClass]bool)
	var stack []lockClass
	var sccs [][]lockClass
	next := 0

	var strongconnect func(v lockClass)
	strongconnect = func(v lockClass) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range sortedNeighbors(adj[v]) {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []lockClass
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range order {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}

func sortedNeighbors(tos map[lockClass]LockEdge) []lockClass {
	out := make([]lockClass, 0, len(tos))
	for t := range tos {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// shortestCycle finds a shortest edge path from scc[0] back to itself
// staying inside the component (BFS; deterministic via sorted
// neighbor order).
func shortestCycle(adj map[lockClass]map[lockClass]LockEdge, scc []lockClass) []LockEdge {
	in := make(map[lockClass]bool, len(scc))
	for _, c := range scc {
		in[c] = true
	}
	start := scc[0]
	type step struct {
		node lockClass
		path []LockEdge
	}
	queue := []step{{node: start}}
	visited := map[lockClass]bool{}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range sortedNeighbors(adj[cur.node]) {
			if !in[next] {
				continue
			}
			e := adj[cur.node][next]
			path := append(append([]LockEdge(nil), cur.path...), e)
			if next == start {
				return path
			}
			if !visited[next] {
				visited[next] = true
				queue = append(queue, step{node: next, path: path})
			}
		}
	}
	return nil
}
