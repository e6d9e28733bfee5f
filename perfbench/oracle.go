package main

import (
	"github.com/paper-repo-growth/doryp20/internal/algo"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// oracle holds the sequential reference answers for one graph,
// computed on first use and kept so that checks stay cheap.
type oracle struct {
	g     *graph.CSR
	dist  map[core.NodeID][]int64
	reach map[core.NodeID][]bool
}

func newOracle(g *graph.CSR) *oracle {
	return &oracle{g: g, dist: map[core.NodeID][]int64{}, reach: map[core.NodeID][]bool{}}
}

func (o *oracle) bfs(src core.NodeID) []int64 {
	d, ok := o.dist[src]
	if !ok {
		d = algo.BFSRef(o.g, src)
		o.dist[src] = d
	}
	return d
}

// checkDist counts the entries of got, the distances from src, that
// fall outside [d*, (1+eps)·d*] for the BFS distance d*; an unreached
// vertex must be reported unreached. eps 0 demands bit-identity.
func (o *oracle) checkDist(src core.NodeID, got []int64, eps float64) int {
	want := o.bfs(src)
	if len(got) != len(want) {
		return len(want) + 1
	}
	bad := 0
	for v, w := range want {
		d := got[v]
		switch {
		case w == algo.Unreached:
			if d != algo.Unreached {
				bad++
			}
		case d < w || float64(d) > (1+eps)*float64(w):
			bad++
		}
	}
	return bad
}

// checkRows checks one distance row per source.
func (o *oracle) checkRows(sources []core.NodeID, rows [][]int64, eps float64) int {
	if len(rows) != len(sources) {
		return len(sources) + 1
	}
	bad := 0
	for i, src := range sources {
		bad += o.checkDist(src, rows[i], eps)
	}
	return bad
}

// checkReach counts the entries of got that differ from the reachable
// set ClosureRef computes from src.
func (o *oracle) checkReach(src core.NodeID, got []bool) int {
	want, ok := o.reach[src]
	if !ok {
		want = algo.ClosureRef(o.g, src)
		o.reach[src] = want
	}
	if len(got) != len(want) {
		return len(want) + 1
	}
	bad := 0
	for v := range want {
		if got[v] != want[v] {
			bad++
		}
	}
	return bad
}
