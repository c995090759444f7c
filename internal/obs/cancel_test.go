package obs

import (
	"context"
	"sync"
	"testing"
)

func TestCancelEveryChanNilNeverCancels(t *testing.T) {
	check := CancelEveryChan(nil, 1)
	for i := 0; i < 100; i++ {
		if check() {
			t.Fatal("nil done channel reported cancellation")
		}
	}
}

func TestCancelEveryChanStride(t *testing.T) {
	done := make(chan struct{})
	const stride = 4
	check := CancelEveryChan(done, stride)

	// Open channel: never cancels regardless of call count.
	for i := 0; i < 3*stride; i++ {
		if check() {
			t.Fatalf("open channel reported cancellation on call %d", i)
		}
	}

	close(done)
	// The previous loop ended exactly on a poll boundary, so the next poll
	// is stride calls away; the stride-1 calls before it skip the channel.
	for i := 0; i < stride-1; i++ {
		if check() {
			t.Fatalf("cancellation observed %d calls into a stride of %d", i+1, stride)
		}
	}
	if !check() {
		t.Fatal("poll call after close did not report cancellation")
	}
	// Latched: every later call is true without touching the channel.
	for i := 0; i < 10; i++ {
		if !check() {
			t.Fatal("cancellation did not latch")
		}
	}
}

func TestCancelEveryStrideOne(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	check := CancelEveryChan(ctx.Done(), 1)
	// Stride 1 keeps no state, so workers may share one poll (-race).
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if check() {
					t.Error("live context reported cancellation")
					return
				}
			}
		}()
	}
	wg.Wait()
	cancel()
	if !check() {
		t.Fatal("stride-1 poll missed cancellation on the next call")
	}
}

func TestCancelEveryNonPositiveStride(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, stride := range []int{0, -5} {
		if !CancelEveryChan(ctx.Done(), stride)() {
			t.Errorf("stride %d: first call after cancel must report true", stride)
		}
	}
}
