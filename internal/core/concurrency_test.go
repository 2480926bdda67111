package core

import (
	"sync"
	"testing"

	"spbtree/internal/metric"
)

// TestConcurrentReaders: a built tree serves concurrent queries safely (the
// caches are mutex-guarded, a pinned frame is not written and the distance counter
// is atomic). Run with -race.
func TestConcurrentReaders(t *testing.T) {
	objs := vectorSet(500, 4, 91)
	dist := metric.L2(4)
	tree, err := Build(objs, Options{Distance: dist, Codec: metric.VectorCodec{Dim: 4}, NumPivots: 3})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := objs[(w*37+i*13)%len(objs)]
				res, err := tree.RangeQuery(q, 0.2)
				if err != nil {
					errCh <- err
					return
				}
				want := bfRange(objs, q, 0.2, dist)
				if len(res) != len(want) {
					errCh <- errMismatch
					return
				}
				if _, err := tree.KNN(q, 5); err != nil {
					errCh <- err
					return
				}
				if _, err := tree.EstimateRange(q, 0.2); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent query returned wrong result count" }

// TestParallelStressQueriesRebuild races queries running in parallel with
// each other (sharing the sharded page caches and the scratch pool) against
// periodic Rebuilds. Run with -race; answers are cross-checked against brute
// force throughout.
func TestParallelStressQueriesRebuild(t *testing.T) {
	objs, tree := buildCtxTree(t, 800, 4, 54)
	dist := metric.L2(4)
	r := 0.25 * dist.MaxDistance()

	stop := make(chan struct{})
	var wg, wgRebuild sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				q := objs[(w*53+i*17)%len(objs)]
				res, err := tree.RangeQuery(q, r)
				if err != nil {
					errCh <- err
					return
				}
				want := bfRange(objs, q, r, dist)
				if len(res) != len(want) {
					errCh <- errMismatch
					return
				}
				if res, err := tree.KNN(q, 5); err != nil || len(res) != 5 {
					errCh <- errMismatch
					return
				}
			}
		}(w)
	}
	wgRebuild.Add(1)
	go func() {
		defer wgRebuild.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := tree.Rebuild(nil, nil); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	wgRebuild.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
