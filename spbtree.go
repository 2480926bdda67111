// Package spbtree is the public API of this library: a disk-based metric
// index — the Space-filling curve and Pivot-based B+-tree (SPB-tree) of
// Chen, Gao, Li, Jensen and Chen ("Efficient Metric Indexing for Similarity
// Search", ICDE 2015, extended with similarity joins) — for similarity
// search and similarity joins over any data type with any distance function
// satisfying the triangle inequality.
//
// Quick start:
//
//	objs := []spbtree.Object{
//		spbtree.NewStr(0, "defoliate"),
//		spbtree.NewStr(1, "defoliated"),
//		spbtree.NewStr(2, "citrate"),
//	}
//	tree, err := spbtree.Build(objs, spbtree.Options{
//		Distance:  spbtree.EditDistance{MaxLen: 16},
//		Codec:     spbtree.StrCodec{},
//		NumPivots: 2,
//	})
//	res, err := tree.RangeQuery(spbtree.NewStr(99, "defoliates"), 1)
//	nn, err := tree.KNN(spbtree.NewStr(99, "defoliates"), 3)
//
// RangeQuery and KNN are the paper's two operations by name; everything else
// a search can carry — a deadline, per-stage statistics, a verification
// budget, the graph tier, a seed bound — is a field of one request value:
//
//	nn, stats, err := tree.Query(ctx, spbtree.Query{
//		Op: spbtree.OpKNN, Q: spbtree.NewStr(99, "defoliates"), K: 3, Timed: true,
//	})
//
// For similarity joins, build two trees over the same mapped space with the
// Z-order curve and call Join:
//
//	tq, _ := spbtree.Build(Q, spbtree.Options{Distance: d, Codec: c, Curve: spbtree.ZOrder})
//	to, _ := spbtree.Build(O, spbtree.Options{Distance: d, Codec: c, Curve: spbtree.ZOrder, ShareMapping: tq})
//	pairs, _ := spbtree.Join(tq, to, eps)
//
// The implementation lives in internal packages; this package re-exports
// the user-facing surface via type aliases, so godoc for the concrete
// behaviour is on spbtree/internal/core and spbtree/internal/metric.
package spbtree

import (
	"context"
	"io"

	"spbtree/internal/core"
	"spbtree/internal/forest"
	"spbtree/internal/metric"
	"spbtree/internal/obs"
	"spbtree/internal/page"
	"spbtree/internal/pivot"
	"spbtree/internal/sfc"
)

// Core index types.
type (
	// Tree is a built SPB-tree.
	Tree = core.Tree
	// Options configures Build.
	Options = core.Options
	// Result is one similarity-search answer.
	Result = core.Result
	// Query is one search request — operation, object and parameters — taken
	// by Tree.Query and Forest.Query.
	Query = core.Query
	// JoinPair is one similarity-join answer.
	JoinPair = core.JoinPair
	// Stats carries the paper's per-operation metrics (page accesses,
	// distance computations, wall time).
	Stats = core.Stats
	// CostEstimate carries the cost models' EDC/EPA predictions.
	CostEstimate = core.CostEstimate
	// TraversalStrategy selects incremental or greedy kNN traversal.
	TraversalStrategy = core.TraversalStrategy
	// NearestIter yields neighbors in ascending distance order, lazily.
	NearestIter = core.NearestIter
)

// Build constructs an SPB-tree over objs: it selects pivots, maps every
// object through the two-stage pivot-and-SFC mapping, writes the RAF in
// ascending SFC order and bulk-loads the B+-tree. Options.Distance and
// Options.Codec are required; every other option has the paper's default.
// See core.Build.
func Build(objs []Object, opts Options) (*Tree, error) { return core.Build(objs, opts) }

// Join computes the similarity join SJ(Q, O, ε) = {⟨q, o⟩ | d(q, o) ≤ ε}
// over two Z-order SPB-trees sharing one mapped space (build the second with
// Options.ShareMapping). Self-joins (tq == to) are allowed. See core.Join.
func Join(tq, to *Tree, eps float64) ([]JoinPair, error) { return core.Join(tq, to, eps) }

// EstimateJoin predicts a join's cost from the trees' cost models.
func EstimateJoin(tq, to *Tree, eps float64) (CostEstimate, error) {
	return core.EstimateJoin(tq, to, eps)
}

// kNN traversal strategies (paper Table 5).
const (
	Incremental = core.Incremental
	Greedy      = core.Greedy
)

// ErrNotFound is returned by Tree.Delete and Tree.Get for missing objects.
var ErrNotFound = core.ErrNotFound

// OpenOptions configures Open.
type OpenOptions = core.OpenOptions

// Open reopens a tree persisted with Tree.WriteMeta against its two page
// stores. The caller supplies the stores (OpenOptions.IndexStore/DataStore)
// plus the same Distance and Codec the tree was built with; the meta stream
// restores the pivot table, quantization and bookkeeping without a single
// distance computation. Meta corruption is reported as ErrCorruptMeta.
// See core.Open.
func Open(meta io.Reader, opts OpenOptions) (*Tree, error) { return core.Open(meta, opts) }

// Durability and corruption resilience. Trees persisted with
// Tree.SaveAtomic live in a directory of three files (index.pages,
// data.pages, tree.meta); the meta carries a checksummed footer plus a
// CRC32-C for every page it references, so crashes and silent media
// corruption are detected — queries degrade to partial results with a typed
// error rather than returning wrong answers. Load reopens such a directory,
// Tree.VerifyIntegrity audits it exhaustively, and Repair rebuilds it from
// whatever objects survive.
type (
	// LoadOptions configures Load and Repair.
	LoadOptions = core.LoadOptions
	// RepairReport summarizes a Repair run.
	RepairReport = core.RepairReport
	// Corruption is one finding of Tree.VerifyIntegrity.
	Corruption = core.Corruption
	// IntegrityError aggregates every corruption VerifyIntegrity found.
	IntegrityError = core.IntegrityError
	// CorruptError reports a page whose content failed checksum validation.
	CorruptError = page.CorruptError
)

var (
	// ErrCorrupt matches (errors.Is) every checksum-validation failure.
	ErrCorrupt = page.ErrCorrupt
	// ErrCorruptMeta matches (errors.Is) every meta-validation failure
	// reported by Open and Load.
	ErrCorruptMeta = core.ErrCorruptMeta
)

// Load reopens an index directory written by Tree.SaveAtomic: it validates
// the meta footer's checksum, opens the two page files and verifies spot
// checks before handing back a queryable tree. A directory that fails
// validation is reported with ErrCorruptMeta or ErrCorrupt (try Repair).
// See core.Load.
func Load(dir string, opts LoadOptions) (*Tree, error) { return core.Load(dir, opts) }

// Repair rebuilds an index directory from the objects that survive in its
// RAF — salvaging records sequentially, re-deriving keys through the pivot
// mapping and bulk-loading a fresh B+-tree — then atomically replaces the
// old files. The report says how many objects were recovered and lost.
// See core.Repair.
func Repair(dir string, opts LoadOptions) (RepairReport, error) { return core.Repair(dir, opts) }

// Page storage for persistent trees.
type (
	// PageStore is the page-granular storage interface trees run on.
	PageStore = page.Store
	// FileStore is a file-backed PageStore.
	FileStore = page.FileStore
	// MemStore is an in-memory PageStore.
	MemStore = page.MemStore
)

var (
	// NewMemStore returns an empty in-memory page store.
	NewMemStore = page.NewMemStore
	// NewFileStore creates (or truncates) a file-backed page store.
	NewFileStore = page.NewFileStore
	// OpenFileStore opens an existing file-backed page store.
	OpenFileStore = page.OpenFileStore
)

// Metric-space surface: objects, distances, codecs.
type (
	// Object is an element of a metric space.
	Object = metric.Object
	// DistanceFunc is a metric (symmetric, non-negative, identity,
	// triangle inequality).
	DistanceFunc = metric.DistanceFunc
	// BoundedDistanceFunc is a DistanceFunc with a threshold-aware kernel
	// (DistanceAtMost) that may abandon an evaluation once the distance
	// provably exceeds the caller's bound; trees use it automatically
	// throughout verification. See metric.BoundedDistanceFunc.
	BoundedDistanceFunc = metric.BoundedDistanceFunc
	// BatchDistanceFunc is a DistanceFunc with a blocked batch kernel
	// (BatchDistanceAtMost) that evaluates one query against a block of
	// candidates, hoisting per-query work out of the per-candidate loop;
	// trees use it automatically wherever verification lands a whole leaf
	// page of candidates. See metric.BatchDistanceFunc.
	BatchDistanceFunc = metric.BatchDistanceFunc
	// Codec decodes objects from their serialized payloads.
	Codec = metric.Codec

	// Vector is a real-valued vector object.
	Vector = metric.Vector
	// Vector32 is a real-valued vector object stored at float32 precision —
	// half the storage and verify-stage memory traffic of Vector, with
	// distances exact over the rounded coordinates. See metric.Vector32 for
	// the tolerance contract against a float64 dataset.
	Vector32 = metric.Vector32
	// Str is a string object.
	Str = metric.Str
	// BitString is a fixed-width binary signature object.
	BitString = metric.BitString
	// Seq is a DNA sequence object with a cached tri-gram profile.
	Seq = metric.Seq

	// LpNorm is the Minkowski distance of configurable order.
	LpNorm = metric.LpNorm
	// LInf is the Chebyshev distance.
	LInf = metric.LInf
	// EditDistance is the Levenshtein distance.
	EditDistance = metric.EditDistance
	// Hamming is the Hamming distance over bit signatures.
	Hamming = metric.Hamming
	// TrigramAngular is the angular distance over tri-gram profiles.
	TrigramAngular = metric.TrigramAngular
	// Set is a set-valued object.
	Set = metric.Set
	// Jaccard is the Jaccard distance over sets.
	Jaccard = metric.Jaccard

	// VectorCodec decodes Vector payloads.
	VectorCodec = metric.VectorCodec
	// Vector32Codec decodes Vector32 payloads.
	Vector32Codec = metric.Vector32Codec
	// StrCodec decodes Str payloads.
	StrCodec = metric.StrCodec
	// BitStringCodec decodes BitString payloads.
	BitStringCodec = metric.BitStringCodec
	// SeqCodec decodes Seq payloads.
	SeqCodec = metric.SeqCodec
	// SetCodec decodes Set payloads.
	SetCodec = metric.SetCodec
)

// Threshold-aware evaluation helpers.
var (
	// DistanceAtMost evaluates fn's distance under bound t, through the
	// metric's threshold-aware kernel when it implements one and exactly
	// otherwise. See metric.DistanceAtMost.
	DistanceAtMost = metric.DistanceAtMost
	// IsBounded reports whether a DistanceFunc implements a threshold-aware
	// kernel. See metric.IsBounded.
	IsBounded = metric.IsBounded
	// BatchDistanceAtMost evaluates fn against a block of candidates, through
	// the metric's batch kernel when it implements one and a scalar loop
	// otherwise. See metric.BatchDistanceAtMost.
	BatchDistanceAtMost = metric.BatchDistanceAtMost
)

// Object constructors.
var (
	// NewVector returns a vector object.
	NewVector = metric.NewVector
	// NewVector32 returns a float32 vector object.
	NewVector32 = metric.NewVector32
	// NewVector32From64 returns a float32 vector object with each coordinate
	// rounded from float64.
	NewVector32From64 = metric.NewVector32From64
	// NewStr returns a string object.
	NewStr = metric.NewStr
	// NewBitString returns a bit-signature object.
	NewBitString = metric.NewBitString
	// NewSeq returns a DNA-sequence object.
	NewSeq = metric.NewSeq
	// NewSet returns a set object (elements copied, sorted, deduplicated).
	NewSet = metric.NewSet
	// L2 returns the Euclidean distance over dim-dimensional unit vectors.
	L2 = metric.L2
	// L5 returns the Minkowski-5 distance over dim-dimensional unit vectors.
	L5 = metric.L5
)

// Space-filling curve kinds for Options.Curve.
const (
	// Hilbert offers the best clustering and is the default for search.
	Hilbert = sfc.Hilbert
	// ZOrder is coordinatewise monotone and required for similarity joins.
	ZOrder = sfc.ZOrder
)

// Distributed extension: partitioned SPB-trees with parallel scatter-gather
// queries (the paper's future-work direction).
type (
	// Forest is a hash-partitioned SPB-tree whose shards share one pivot
	// mapping and answer queries in parallel.
	Forest = forest.Forest
	// ForestOptions configures BuildForest.
	ForestOptions = forest.Options
)

// BuildForest partitions objs across shards and builds one SPB-tree per
// shard. See forest.Build.
func BuildForest(objs []Object, opts ForestOptions) (*Forest, error) {
	return forest.Build(objs, opts)
}

// JoinForests computes SJ(Q, O, ε) between two forests sharing one mapped
// space, all shard pairs in parallel. See forest.Join.
func JoinForests(fq, fo *Forest, eps float64) ([]JoinPair, error) {
	return forest.Join(fq, fo, eps)
}

// Observability surface: per-query stage statistics, aggregate metrics and
// structured tracing hooks. DESIGN.md §7 defines every counter and maps it
// to the paper's metrics. Tree.Query, Forest.Query and JoinWithStats return a
// QueryStats per query (Query.Timed adds the stage clocks); Tree.Metrics and Tree.PublishExpvar expose the
// running aggregates; Tree.SetTracer installs a TraceEvent hook on every
// storage layer (no-op and allocation-free when unset).
type (
	// QueryStats is one query's per-stage cost breakdown: pruning counts,
	// compdists, index/data page accesses, cache hits and stage wall clocks.
	QueryStats = core.QueryStats
	// MetricsRegistry aggregates per-operation metrics over a tree's life.
	MetricsRegistry = obs.Registry
	// OpMetrics is one operation's aggregate counters and latency histogram.
	OpMetrics = obs.OpMetrics
	// OpSnapshot is a consistent-enough copy of an OpMetrics, JSON-taggable.
	OpSnapshot = obs.OpSnapshot
	// LatencyHistogram is a fixed-bucket (powers of two, 1µs…) histogram.
	LatencyHistogram = obs.Histogram
	// HistSnapshot is a histogram copy with bucket upper edges in ns.
	HistSnapshot = obs.HistSnapshot
	// Tracer receives structured storage-layer events; implementations must
	// be cheap and must not retain the Event past the call.
	Tracer = obs.Tracer
	// NopTracer is a Tracer that does nothing.
	NopTracer = obs.NopTracer
	// TraceEvent is one storage-layer event (kind, source, page, offset).
	TraceEvent = obs.Event
	// TraceEventKind enumerates the event kinds.
	TraceEventKind = obs.EventKind
	// TraceSrc labels an event's storage side: index (B+-tree) or data (RAF).
	TraceSrc = obs.Src
)

// Trace event kinds and sources, re-exported for Tracer implementations.
const (
	EvPageRead   = obs.EvPageRead
	EvPageWrite  = obs.EvPageWrite
	EvCacheHit   = obs.EvCacheHit
	EvCacheMiss  = obs.EvCacheMiss
	EvNodeRead   = obs.EvNodeRead
	EvRecordRead = obs.EvRecordRead

	SrcIndex = obs.SrcIndex
	SrcData  = obs.SrcData
)

// Operation names used in QueryStats.Op and the metrics registry.
const (
	OpRange     = core.OpRange
	OpKNN       = core.OpKNN
	OpKNNApprox = core.OpKNNApprox
	OpKNNGraph  = core.OpKNNGraph
	OpJoin      = core.OpJoin
)

// Approximate graph tier: an NN-descent k-neighbor graph over the tree's
// live objects, queried by greedy beam search (DESIGN.md §14). Build with
// Tree.BuildGraph / BuildGraphCtx, query with Tree.Query under Op OpKNNGraph
// (Query.Search tunes the beam); Tree.HasGraph reports liveness. The tier is
// opt-in and degrades, never fails: graph queries return ErrNoGraph when no
// graph is live (callers fall back to exact kNN — the forest and spbserve's
// mode=ann do so automatically), a deleted object never surfaces (the
// search merges the durable delta buffer and tombstone filter), and
// SaveAtomic/Load persist and reattach the graph beside the tree meta.
type (
	// GraphOptions configures Tree.BuildGraph (zero value = defaults).
	GraphOptions = core.GraphOptions
	// SearchOptions tunes one approximate kNN query; Ef is the beam width.
	SearchOptions = core.SearchOptions
)

// DefaultEf is the beam width used when SearchOptions.Ef is zero.
const DefaultEf = core.DefaultEf

var (
	// ErrNoGraph matches graph queries on a tree with no live graph.
	ErrNoGraph = core.ErrNoGraph
	// ErrGraphStale matches BuildGraph attempts that raced a structural
	// mutation; rebuild under a write-quiet window.
	ErrGraphStale = core.ErrGraphStale
)

// JoinWithStats computes the similarity join like Join and additionally
// returns the join's QueryStats (page accesses aggregate both trees' stores,
// once for a self-join). See core.JoinWithStats.
func JoinWithStats(tq, to *Tree, eps float64) ([]JoinPair, QueryStats, error) {
	return core.JoinWithStats(tq, to, eps)
}

// Cancellation surface. Tree.Query, Forest.Query, JoinCtx and
// JoinWithStatsCtx honor their context: cancellation is checked at leaf-scan and
// verification granularity, and an interrupted query returns the answers
// verified so far together with an error matching ErrCanceled — partial
// results plus a typed error, the same contract the durability layer uses
// for corrupt pages. The spbserve HTTP service builds its per-request
// deadlines on this surface.
var (
	// ErrCanceled matches (errors.Is) every query abandoned because its
	// context was canceled or its deadline expired; the context's own cause
	// (e.g. context.DeadlineExceeded) stays matchable through it.
	ErrCanceled = core.ErrCanceled
	// ErrInvalidQuery matches every request Query.Validate rejects.
	ErrInvalidQuery = core.ErrInvalidQuery
)

// JoinCtx computes the similarity join like Join, honoring ctx: cancellation
// is checked at every merge step and before every distance computation, and
// the pairs found so far are returned with an error matching ErrCanceled.
// See core.JoinCtx.
func JoinCtx(ctx context.Context, tq, to *Tree, eps float64) ([]JoinPair, error) {
	return core.JoinCtx(ctx, tq, to, eps)
}

// JoinWithStatsCtx is JoinCtx plus the join's QueryStats. See
// core.JoinWithStatsCtx.
func JoinWithStatsCtx(ctx context.Context, tq, to *Tree, eps float64) ([]JoinPair, QueryStats, error) {
	return core.JoinWithStatsCtx(ctx, tq, to, eps)
}

// Pivot selection algorithms for Options.Selector.
type (
	// PivotSelector chooses pivots from a dataset.
	PivotSelector = pivot.Selector
	// HFI is the paper's HF-based incremental selector (the default).
	HFI = pivot.HFI
	// HF is the hull-of-foci outlier selector of the Omni-family.
	HF = pivot.HF
	// FFT is farthest-first traversal.
	FFT = pivot.FFT
	// SSS is sparse spatial selection.
	SSS = pivot.SSS
	// Spacing is minimum-correlation vantage selection.
	Spacing = pivot.Spacing
	// PCASelector is variance-maximizing selection.
	PCASelector = pivot.PCA
	// RandomSelector picks pivots uniformly at random.
	RandomSelector = pivot.Random
)
