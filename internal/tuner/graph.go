package tuner

import (
	"context"

	"ceal/internal/cfgspace"
	"ceal/internal/score"
)

// graphFor returns the parameter graph over p's pool: the one g built last
// if it is over this very pool, else one built now under p's ctx. Holding
// mu across the build lets replications waiting on it reuse its graph.
func (g *GEIST) graphFor(p *Problem) ([][]int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(p.Pool) > 0 && len(g.pool) == len(p.Pool) && &g.pool[0] == &p.Pool[0] {
		return g.graph, nil
	}
	graph, err := parameterGraph(p.context(), p.engine(), p.Space, p.Pool, geistNeighbors)
	if err != nil {
		return nil, err
	}
	g.pool, g.graph = p.Pool, graph
	return graph, nil
}

// parameterGraph builds GEIST's "parameter graph": each pool row's k
// nearest neighbours in normalized parameter space, nearest first, ties to
// the lower index. Rows fan out across eng, and ctx is checked before every
// row (the engine hands each worker one chunk, so a per-chunk check would
// stop nothing): a cancelled build stops within one row per worker.
func parameterGraph(ctx context.Context, eng *score.Engine, space *cfgspace.Space, pool []cfgspace.Config, k int) ([][]int, error) {
	n := len(pool)
	k = min(k, n-1)
	feats := make([][]float64, n)
	eng.Map(n, func(i int) { feats[i] = space.Normalized(pool[i]) })
	graph := make([][]int, n)
	eng.MapChunks(n, func(lo, hi int) {
		dist := make([]float64, k)
		for i := lo; i < hi; i++ {
			if ctx.Err() != nil {
				return
			}
			graph[i] = nearest(feats, i, dist)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return graph, nil
}

// nearest returns the len(dist) rows closest to row i, ordered by
// (distance, index), using dist as scratch. Candidates arrive in index
// order, so one that ties the list's last distance never displaces it.
func nearest(feats [][]float64, i int, dist []float64) []int {
	nb := make([]int, 0, len(dist))
	for j := range feats {
		d := sqDist(feats[i], feats[j])
		if j == i || len(nb) == cap(nb) && d >= dist[len(nb)-1] {
			continue
		}
		if len(nb) < cap(nb) {
			nb = nb[:len(nb)+1]
		}
		m := len(nb) - 1
		for ; m > 0 && dist[m-1] > d; m-- {
			dist[m], nb[m] = dist[m-1], nb[m-1]
		}
		dist[m], nb[m] = d, j
	}
	return nb
}

func sqDist(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}
