package core

import (
	"sync"
	"testing"

	"spbtree/internal/metric"
)

// TestConcurrentReaders: a built tree serves concurrent queries safely (the
// caches are mutex-guarded, page views are immutable and the distance counter
// is atomic), each query fanning out to two verifiers. Run with -race.
func TestConcurrentReaders(t *testing.T) {
	objs := vectorSet(500, 4, 91)
	dist := metric.L2(4)
	tree, err := Build(objs, Options{Distance: dist, Codec: metric.VectorCodec{Dim: 4}, NumPivots: 3, Workers: 2})
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
