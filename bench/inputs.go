package main

import (
	"fmt"
	"math/rand"

	"spbtree/internal/dataset"
	"spbtree/internal/metric"
)

// poolSeed fixes the distribution every workload samples from. The dataset
// generators derive the distribution itself (Color32's twelve cluster
// centres) from their seed, and a different cluster geometry moves kNN cost by
// ±10 % — more than any bound below. So the pool is always generated with
// poolSeed and the -seed argument draws the sample: which pool objects are
// indexed, which are held out as queries or fresh inserts, in what order, and
// (through core.Options.Seed) which pivots the index picks.
const poolSeed = 1

// inputs is one workload's generated data: disjoint slices of the same draw,
// re-identified so that IDs are dense and equal to positions.
type inputs struct {
	ds dataset.Dataset
	// indexed are the objects the index is built over, IDs 0..n-1.
	indexed []metric.Object
	// queries are held out: never indexed, so no query is a distance-0 hit on
	// itself. Their IDs are server.QueryID-free but irrelevant to answers.
	queries []metric.Object
	// fresh are held-out objects the mixed workload inserts, IDs n.. upward.
	fresh []metric.Object
	// payloadBytes is the encoded size of indexed, the "user bytes" that
	// bytes_per_user_byte divides by.
	payloadBytes int64
}

// makeInputs draws n indexed objects, q queries and fresh insertable objects
// from a pool twice that size.
func makeInputs(datasetName string, n, q, fresh int, seed int64) (inputs, error) {
	need := n + q + fresh
	ds, ok := dataset.ByName(datasetName, 2*need, poolSeed)
	if !ok {
		return inputs{}, fmt.Errorf("unknown dataset %q", datasetName)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(ds.Objects))[:need]
	objs := make([]metric.Object, need)
	for i, p := range perm {
		o, err := reidentify(ds.Objects[p], uint64(i))
		if err != nil {
			return inputs{}, err
		}
		objs[i] = o
	}
	in := inputs{ds: ds, indexed: objs[:n], fresh: objs[n : n+fresh], queries: objs[n+fresh:]}
	for _, o := range in.indexed {
		in.payloadBytes += int64(len(o.AppendBinary(nil)))
	}
	return in, nil
}

// reidentify copies o under a new ID.
func reidentify(o metric.Object, id uint64) (metric.Object, error) {
	switch v := o.(type) {
	case *metric.Str:
		return metric.NewStr(id, v.S), nil
	case *metric.Vector32:
		return metric.NewVector32(id, v.Coords), nil
	}
	return nil, fmt.Errorf("reidentify: unsupported object type %T", o)
}
