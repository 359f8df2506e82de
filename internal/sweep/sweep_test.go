package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunEmitsInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 57
			var got []int
			err := Run(context.Background(), n, workers,
				func(_ context.Context, i int) (int, error) {
					// Finish later jobs first to stress the reorder buffer.
					time.Sleep(time.Duration(n-i) * 10 * time.Microsecond)
					return i * i, nil
				},
				func(i, v int, err error) error {
					if err != nil {
						return err
					}
					if v != i*i {
						t.Errorf("cell %d = %d, want %d", i, v, i*i)
					}
					got = append(got, i)
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("emitted %d cells, want %d", len(got), n)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("out of order at %d: %v", i, got)
				}
			}
		})
	}
}

func TestRunZeroJobs(t *testing.T) {
	err := Run(context.Background(), 0, 4,
		func(_ context.Context, i int) (int, error) { return 0, nil },
		func(i, v int, err error) error {
			t.Fatal("emit called for empty sweep")
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunJobErrorReachesEmit(t *testing.T) {
	boom := errors.New("boom")
	var seen int
	err := Run(context.Background(), 4, 2,
		func(_ context.Context, i int) (int, error) {
			if i == 2 {
				return 0, boom
			}
			return i, nil
		},
		func(i, v int, err error) error {
			seen++
			if i == 2 && !errors.Is(err, boom) {
				t.Errorf("cell 2 error = %v, want boom", err)
			}
			if i != 2 && err != nil {
				t.Errorf("cell %d unexpected error %v", i, err)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 4 {
		t.Fatalf("emit called %d times, want 4", seen)
	}
}

func TestRunEmitErrorStops(t *testing.T) {
	stop := errors.New("stop")
	var emitted int32
	err := Run(context.Background(), 100, 4,
		func(_ context.Context, i int) (int, error) { return i, nil },
		func(i, v int, err error) error {
			if atomic.AddInt32(&emitted, 1) == 3 {
				return stop
			}
			return nil
		})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want stop", err)
	}
	if emitted != 3 {
		t.Fatalf("emitted %d cells after stop, want 3", emitted)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var emitted int
	errc := make(chan error, 1)
	started := make(chan struct{}, 1)
	go func() {
		errc <- Run(ctx, 1000, 2,
			func(ctx context.Context, i int) (int, error) {
				select {
				case started <- struct{}{}:
				default:
				}
				select {
				case <-ctx.Done():
				case <-time.After(time.Millisecond):
				}
				return i, nil
			},
			func(i, v int, err error) error { emitted++; return nil })
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if emitted >= 1000 {
		t.Fatalf("sweep completed despite cancellation (%d cells)", emitted)
	}
}

func TestMapOrderAndError(t *testing.T) {
	vals, err := Map(context.Background(), 10, 4, func(i int) (string, error) {
		return fmt.Sprintf("v%d", i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != fmt.Sprintf("v%d", i) {
			t.Fatalf("vals[%d] = %q", i, v)
		}
	}
	if _, err := Map(context.Background(), 10, 4, func(i int) (string, error) {
		if i == 7 {
			return "", errors.New("bad cell")
		}
		return "", nil
	}); err == nil {
		t.Fatal("Map swallowed a job error")
	}
}

func TestNormalize(t *testing.T) {
	if w := Normalize(0, 100); w != DefaultWorkers() {
		t.Errorf("Normalize(0) = %d, want %d", w, DefaultWorkers())
	}
	if w := Normalize(8, 3); w != 3 {
		t.Errorf("Normalize(8, 3) = %d, want 3", w)
	}
	if w := Normalize(-1, 0); w != 1 {
		t.Errorf("Normalize(-1, 0) = %d, want 1", w)
	}
}
