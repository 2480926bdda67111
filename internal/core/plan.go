package core

import (
	"math"
	"sync/atomic"

	"spbtree/internal/metric"
)

// This file is the adaptive query planner (DESIGN.md §15): it turns the
// paper's Section 4.4/5.3 cost estimators (costmodel.go) into per-query
// execution decisions. Per query it predicts the work ahead — EDC distance
// computations and EPA page accesses — prices it with two online-calibrated
// unit costs (an EWMA of observed ns per compdist and ns per page access,
// fed by every finished query), and sizes the verifier pool to match:
// serial execution for cheap, selective queries where pool dispatch overhead
// would dominate, and up to Options.Workers slots for expensive ones.
//
// The decision never changes results: the ordered-commit engine (exec.go) is
// worker-count-invariant by construction, so the planner only moves the
// latency/parallelism trade-off. Every decision and its inputs are recorded
// in QueryStats.Plan, so choices are observable and testable.
//
// Fallback rules (all degrade to the pre-planner fixed behavior, i.e.
// workersFor()): the planner is disabled (Options.DisablePlanner), the tree
// is single-worker, fewer than plannerMinSamples queries have calibrated the
// unit costs, or the cost model's MBB snapshot is dirty — queries run under
// the tree's read lock and must never trigger the write-side snapshot.

// Plan modes recorded in PlanInfo.Mode.
const (
	// PlanModePlanned marks a cost-model-driven decision.
	PlanModePlanned = "planned"
	// PlanModeFixed marks the pre-planner fixed behavior: the planner is
	// disabled or the tree is single-worker.
	PlanModeFixed = "fixed"
	// PlanModeUncalibrated marks a fixed-behavior fallback because too few
	// queries have fed the unit-cost EWMAs.
	PlanModeUncalibrated = "uncalibrated"
	// PlanModeDirtyModel marks a fixed-behavior fallback because writes have
	// invalidated the cost model's MBB snapshot and a query may not rebuild
	// it under the read lock.
	PlanModeDirtyModel = "dirty-model"
)

// PlanInfo records one query's execution-plan decision and the inputs that
// produced it. It travels inside QueryStats (including over the cluster
// wire); the zero value means "no planner ran" (joins, graph queries,
// pre-planner trees on the other side of a version skew).
type PlanInfo struct {
	// Mode is one of the PlanMode constants.
	Mode string
	// Workers is the verifier slot count the decision asked for; 0 means
	// serial execution. The slot pool may grant fewer under contention —
	// this records the grant, which is what actually ran.
	Workers int
	// EDC/EPA/Radius echo the cost model's prediction (CostEstimate) when
	// Mode is PlanModePlanned; zero otherwise.
	EDC    float64
	EPA    float64
	Radius float64
	// CostNS is the predicted serial cost EDC·NSPerCompdist + EPA·NSPerPage.
	CostNS float64
	// NSPerCompdist and NSPerPage are the calibrated unit costs used.
	NSPerCompdist float64
	NSPerPage     float64

	// Forest/cluster scatter fields, filled by the gather side.

	// ShardsTotal and ShardsPruned count the scatter's fan-out and how many
	// shards the per-shard MBB summaries proved irrelevant (range only).
	ShardsTotal  int
	ShardsPruned int
	// Staged reports the two-stage kNN visit: FirstShard (an index into the
	// forest's shard order) ran first to obtain the k-th-distance bound the
	// remaining shards were probed with.
	Staged     bool
	FirstShard int
}

// Planner calibration constants.
const (
	// plannerMinSamples is how many observed queries must feed the EWMAs
	// before the planner trusts them.
	plannerMinSamples = 16
	// plannerAlpha is the EWMA smoothing factor.
	plannerAlpha = 0.2
	// planSerialCutoffNS: predicted serial cost below which the per-query
	// worker pool is not worth its dispatch overhead (goroutine wakeups,
	// channel traffic — roughly 100µs of overhead at typical slot counts).
	planSerialCutoffNS = 120e3
	// planWorkerGrainNS is the predicted cost one extra worker slot is
	// expected to absorb; the slot ask scales with cost/grain.
	planWorkerGrainNS = 150e3
	// plannerEstSampleCap bounds the reservoir scan of the per-query eND_k
	// estimate so planning stays a small fraction of the work it prices.
	plannerEstSampleCap = 256
)

// planner holds the online unit-cost calibration. All fields are atomics:
// observations arrive from queries running under the tree's read lock, so
// concurrent updates race benignly via CAS loops. The zero value is a valid
// uncalibrated planner.
type planner struct {
	off bool
	// nsComp and nsPage are EWMAs of observed ns per distance computation
	// and ns per physical page access, stored as float64 bits.
	nsComp  atomic.Uint64
	nsPage  atomic.Uint64
	samples atomic.Int64
}

func (p *planner) loadComp() float64 { return math.Float64frombits(p.nsComp.Load()) }
func (p *planner) loadPage() float64 { return math.Float64frombits(p.nsPage.Load()) }

// ewmaStore folds x into the EWMA held in a (as float bits) with a CAS loop;
// the first observation seeds the average.
func ewmaStore(a *atomic.Uint64, x float64) {
	for {
		old := a.Load()
		cur := math.Float64frombits(old)
		next := x
		if cur > 0 {
			next = (1-plannerAlpha)*cur + plannerAlpha*x
		}
		if a.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// observe feeds one finished query's observed cost into the calibration.
// Called from queryTimer.finish for every query, so the unit costs track the
// live workload (metric hardness, cache temperature) without any dedicated
// calibration phase. Queries that did no distance work, or ran so fast the
// clock quantizes to zero, teach nothing and are skipped.
func (p *planner) observe(qs *QueryStats) {
	if p.off {
		return
	}
	el := float64(qs.Elapsed.Nanoseconds())
	cd := float64(qs.Compdists)
	if el <= 0 || cd <= 0 {
		return
	}
	pa := float64(qs.IndexPA + qs.DataPA)
	comp := p.loadComp()
	switch {
	case pa < 1:
		// Fully cached query: elapsed is (almost) pure distance work, the
		// cleanest per-compdist signal.
		ewmaStore(&p.nsComp, el/cd)
	case comp > 0:
		// Pages were touched: attribute the residual beyond the distance
		// work to them.
		if resid := el - comp*cd; resid > 0 {
			ewmaStore(&p.nsPage, resid/pa)
		}
	default:
		// Bootstrap under a workload where every query touches pages (tiny
		// or disabled caches): seed the per-compdist cost from the full
		// elapsed time — an overestimate that cached queries refine, and
		// far better than never calibrating.
		ewmaStore(&p.nsComp, el/cd)
	}
	p.samples.Add(1)
}

// planDecide prices one query's estimate and chooses the slot ask. It does
// not touch the slot pool, so explain paths can call it without side effects.
func (t *Tree) planDecide(ce CostEstimate) (info PlanInfo, want int) {
	a, b := t.plr.loadComp(), t.plr.loadPage()
	cost := ce.EDC*a + ce.EPA*b
	if cost > planSerialCutoffNS {
		want = int(cost / planWorkerGrainNS)
		if want < 2 {
			want = 2
		}
		if want > t.workers {
			want = t.workers
		}
	}
	info = PlanInfo{
		Mode: PlanModePlanned, Workers: want,
		EDC: ce.EDC, EPA: ce.EPA, Radius: ce.Radius,
		CostNS: cost, NSPerCompdist: a, NSPerPage: b,
	}
	return info, want
}

// planFallback reports whether the planner must fall back to the fixed
// behavior, and with which mode label. Callers hold the tree's read lock.
func (t *Tree) planFallback() (string, bool) {
	switch {
	case t.workers <= 1 || t.plr.off:
		return PlanModeFixed, true
	case t.plr.samples.Load() < plannerMinSamples || t.plr.loadComp() <= 0:
		return PlanModeUncalibrated, true
	case t.cm.dirty:
		// Rebuilding the MBB snapshot mutates the cost model — forbidden
		// under the read lock. Estimation-free fixed behavior until a
		// compaction/rebuild (or an off-query Estimate* call) refreshes it.
		return PlanModeDirtyModel, true
	}
	return "", false
}

// planSlots runs the planner for one query: decide, acquire, record. est is
// only invoked when no fallback applies. Returns the granted slot count
// (0 = serial). Callers hold the tree's read lock.
func (t *Tree) planSlots(est func() CostEstimate, qs *QueryStats) int {
	if mode, fb := t.planFallback(); fb {
		slots := t.workersFor()
		qs.Plan = PlanInfo{Mode: mode, Workers: slots}
		return slots
	}
	info, want := t.planDecide(est())
	got := 0
	if want > 0 {
		got = acquireSlots(want)
	}
	info.Workers = got
	qs.Plan = info
	return got
}

// planRangeSlots sizes the verifier pool for a range query at radius r.
func (t *Tree) planRangeSlots(qvec []float64, r float64, qs *QueryStats) int {
	return t.planSlots(func() CostEstimate { return t.estimateRangeVec(qvec, r) }, qs)
}

// planKNNSlots sizes the verifier pool for a kNN query. The per-query eND_k
// estimate scans a capped share of the reservoir (plannerEstSampleCap) so
// planning stays cheap relative to the work it prices.
func (t *Tree) planKNNSlots(qvec []float64, k int, qs *QueryStats) int {
	return t.planSlots(func() CostEstimate { return t.estimateKNNVec(qvec, k, plannerEstSampleCap) }, qs)
}

// PlannerState is a snapshot of the planner's calibration, for tools and
// tests.
type PlannerState struct {
	// Enabled is false when Options.DisablePlanner was set or the tree is
	// single-worker (the planner never engages) — so it is false at the
	// default Options.Workers, which is 1.
	Enabled bool
	// Calibrated reports whether enough queries have fed the EWMAs for the
	// planner to act on them.
	Calibrated bool
	// Samples counts the observed queries feeding the EWMAs.
	Samples int64
	// NSPerCompdist and NSPerPage are the current unit-cost EWMAs.
	NSPerCompdist float64
	NSPerPage     float64
}

// PlannerState reports the adaptive planner's calibration state.
func (t *Tree) PlannerState() PlannerState {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return PlannerState{
		Enabled:       !t.plr.off && t.workers > 1,
		Calibrated:    t.plr.samples.Load() >= plannerMinSamples && t.plr.loadComp() > 0,
		Samples:       t.plr.samples.Load(),
		NSPerCompdist: t.plr.loadComp(),
		NSPerPage:     t.plr.loadPage(),
	}
}

// ExplainRange returns the plan the tree would choose for RangeQuery(q, r)
// without executing it: the cost estimate, the calibrated unit costs and the
// worker decision (PlanInfo.Workers is the ask — execution may be granted
// fewer under slot-pool contention). Unlike a live query it may refresh a
// dirty cost-model snapshot, so a fresh explain right after writes reports
// the planned mode a calibrated steady-state query would get.
func (t *Tree) ExplainRange(q metric.Object, r float64) (PlanInfo, error) {
	return t.explain(q, func(qvec []float64) CostEstimate {
		return t.estimateRangeVec(qvec, r)
	})
}

// ExplainKNN is ExplainRange for KNN(q, k); the estimate uses the full
// reservoir (like EstimateKNN), not the planner's capped per-query profile.
func (t *Tree) ExplainKNN(q metric.Object, k int) (PlanInfo, error) {
	return t.explain(q, func(qvec []float64) CostEstimate {
		return t.estimateKNNVec(qvec, k, len(t.cm.vecs))
	})
}

func (t *Tree) explain(q metric.Object, est func([]float64) CostEstimate) (PlanInfo, error) {
	if err := t.ensureCostBoxes(); err != nil {
		return PlanInfo{}, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return PlanInfo{}, ErrClosed
	}
	if mode, fb := t.planFallback(); fb && mode != PlanModeDirtyModel {
		return PlanInfo{Mode: mode, Workers: t.workers}, nil
	}
	info, _ := t.planDecide(est(t.quietPhi(q)))
	return info, nil
}
