package core

// PlanInfo records how a scatter-gather query visited its shards
// (DESIGN.md §15). The forest fills it where the visit is planned; it travels
// inside QueryStats, including over the cluster wire, and the router reports
// the fold of its nodes' plans. The zero value is what a single tree reports.
type PlanInfo struct {
	// Workers is always 0. It exists only because the frozen benchmark
	// harness (bench/) still reads it for its tree / tree.serial rung; it goes
	// with that rung in the next benchmark-only change.
	Workers int

	// ShardsTotal and ShardsPruned count the scatter's fan-out and how many
	// shards the per-shard MBB summaries proved irrelevant (range only).
	ShardsTotal  int
	ShardsPruned int
	// Staged reports the two-stage kNN visit: one shard ran first to obtain
	// the k-th-distance bound the remaining shards were probed with. Behind a
	// router it says some node staged its shard group.
	Staged bool
}
