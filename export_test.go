package adsm

import "adsm/internal/core"

// NewClusterParams is NewClusterErr with edit applied to the engine
// parameters cfg selects. It is the one seam through which the
// equivalence tests reach internal/core's reference engines
// (Params.PerWordSpans, SpanPrefetch off, AdaptiveFreeze), which the
// public Config does not expose. A nil edit builds the default engine.
func NewClusterParams(cfg Config, edit func(*core.Params)) (*Cluster, error) {
	cfg, p := cfg.engine()
	if edit != nil {
		edit(&p)
	}
	return newClusterErr(cfg, p)
}

// ForeignDiffs reports how many diffs written by other nodes the worker's
// node caches.
func (w *Worker) ForeignDiffs() int { return w.n.ForeignDiffs() }

// KnownIntervals reports how many intervals the worker's node has closed
// or ingested.
func (w *Worker) KnownIntervals() int { return w.n.KnownIntervals() }

// EngineTotals returns the engine's counters summed over the nodes, the
// runtime's own counts, and the cluster's garbage collections: the three
// sources Report.Stats is built from.
func (cl *Cluster) EngineTotals() (nodes, runtime Stats, gcRuns int64) {
	cl.c.Transport().Count(&runtime)
	return cl.c.Totals(), runtime, cl.c.GCRuns()
}
