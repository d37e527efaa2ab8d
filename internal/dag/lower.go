package dag

import (
	"fmt"

	"datachat/internal/plan"
	"datachat/internal/skills"
)

// lowerGraph lowers the whole graph into the logical-plan IR targeting
// target. Parent edges become plan inputs with the producers' output names
// resolved; the slice pass then prunes whatever the target does not need.
func lowerGraph(g *Graph, target NodeID) (*plan.Plan, error) {
	// One read lock for the whole walk; everything below uses direct field
	// access (the locked accessors would self-deadlock under RWMutex).
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.nodeLocked(target) == nil {
		return nil, fmt.Errorf("dag: no node %d", target)
	}
	lp := plan.New(int(target))
	for _, n := range g.nodes {
		pn := &plan.Node{
			ID:     int(n.ID),
			Skill:  n.Inv.Skill,
			Args:   n.Inv.Args,
			Output: n.Inv.Output,
		}
		for i, p := range n.Parents {
			if p < 0 {
				pn.Inputs = append(pn.Inputs, plan.Input{Node: plan.External, Name: n.Inv.Inputs[i]})
			} else {
				pn.Inputs = append(pn.Inputs, plan.Input{Node: int(p), Name: g.nodes[p].OutputName()})
			}
		}
		lp.Add(pn)
	}
	return lp, nil
}

// logicalPlan lowers g and runs the executor's configured pass pipeline:
// structural fingerprint + session-wide CSE (CSE, over the whole graph,
// before slicing), slice, fuse (Fuse), strict fingerprint, cost-based join
// reorder, budget sample substitution, cache probe
// (UseCache), consolidate (Consolidate), pushdown (Pushdown). When the cost
// model is on, every pass trace snapshots the estimated plan cost, so
// EXPLAIN shows per-pass cost deltas. budget is the request's
// CostBudgetBytes. st counts the run's plan-time cache hits; nil means
// read-only: the cache probe uses a side-effect-free peek, so Explain never
// perturbs stats or LRU recency.
func (e *Executor) logicalPlan(g *Graph, target NodeID, budget int64, st *Stats) (*plan.Plan, error) {
	lp, err := lowerGraph(g, target)
	if err != nil {
		return nil, err
	}
	env := &plan.Env{
		Lookup: e.Registry.Lookup,
		ExtFingerprint: func(name string) (uint64, bool) {
			fp, err := e.Ctx.Fingerprint(name)
			if err != nil {
				return 0, false
			}
			return fp, true
		},
		SourceFingerprint: func(skill string, args skills.Args) (uint64, bool) {
			def, err := e.Registry.Lookup(skill)
			if err != nil || def.SourceFingerprint == nil {
				return 0, false
			}
			return def.SourceFingerprint(e.Ctx, args)
		},
	}
	if e.UseCache {
		if st == nil {
			env.CacheGet = func(key string) (*skills.Result, bool) {
				return nil, e.cache.Peek(key)
			}
		} else {
			env.CacheGet = func(key string) (*skills.Result, bool) {
				res, ok := e.cache.Get(key)
				if ok {
					st.CacheHits++
				}
				return res, ok
			}
		}
	}
	if e.CostModel {
		env.TableStats = func(database, table string) (plan.TableEstimate, bool) {
			db, ok := e.Ctx.Cloud[database]
			if !ok {
				return plan.TableEstimate{}, false
			}
			ts, err := db.Stats(table)
			if err != nil {
				return plan.TableEstimate{}, false
			}
			return plan.TableEstimate{Rows: int64(ts.Rows), Bytes: ts.Bytes, Pricing: db.Pricing()}, true
		}
		env.DatasetStats = func(name string) (int64, int64, bool) {
			t, err := e.Ctx.Dataset(name)
			if err != nil {
				return 0, 0, false
			}
			return int64(t.NumRows()), plan.ApproxTableBytes(t), true
		}
		env.DatasetColumns = func(name string) ([]string, bool) {
			t, err := e.Ctx.Dataset(name)
			if err != nil {
				return nil, false
			}
			return t.ColumnNames(), true
		}
		if e.statsReg != nil {
			env.Observed = e.statsReg.Lookup
		}
		env.CostBudgetBytes = budget
	}
	var passes []plan.Pass
	if e.CSE {
		passes = append(passes, plan.StructuralFingerprintPass(), plan.CSEPass())
	}
	passes = append(passes, plan.SlicePass())
	if e.Fuse {
		passes = append(passes, plan.FusePass())
	}
	passes = append(passes, plan.FingerprintPass(), plan.JoinReorderPass())
	if e.CostModel {
		passes = append(passes, plan.SampleSubstitutePass())
	}
	passes = append(passes, plan.CacheProbePass())
	if e.Consolidate {
		passes = append(passes, plan.ConsolidatePass())
	}
	if e.Pushdown {
		passes = append(passes, plan.PushdownPass())
	}
	if err := plan.RunPasses(lp, env, passes...); err != nil {
		return nil, err
	}
	return lp, nil
}

// Explain compiles — but does not execute — the sub-DAG ending at target
// through the full pass pipeline and returns the plan report: surviving
// nodes, consolidated SQL fragments, and which passes fired. It plans under
// the zero ExecOptions.
func (e *Executor) Explain(g *Graph, target NodeID) (*plan.Explain, error) {
	return e.ExplainWith(g, target, ExecOptions{})
}

// ExplainWith is Explain for the plan a RunWith under opts would compile.
func (e *Executor) ExplainWith(g *Graph, target NodeID, opts ExecOptions) (*plan.Explain, error) {
	lp, err := e.logicalPlan(g, target, opts.CostBudgetBytes, nil)
	if err != nil {
		return nil, err
	}
	return plan.NewExplain(lp), nil
}
