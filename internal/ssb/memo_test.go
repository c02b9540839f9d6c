package ssb

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// within fails the test if f does not return in a generous bound.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still blocked after 10s", what)
	}
}

func TestDataMemo(t *testing.T) {
	t.Run("same key builds once", func(t *testing.T) {
		d := &Data{}
		var builds atomic.Int32
		release := make(chan struct{})
		build := func() any { builds.Add(1); <-release; return 42 }
		var wg sync.WaitGroup
		vals := make([]any, 8)
		for i := range vals {
			wg.Add(1)
			go func(i int) { defer wg.Done(); vals[i] = d.Memo("k", build) }(i)
		}
		time.Sleep(10 * time.Millisecond) // let callers pile up on the build
		close(release)
		within(t, "callers", wg.Wait)
		if n := builds.Load(); n != 1 {
			t.Errorf("built %d times, want 1", n)
		}
		for i, v := range vals {
			if v != 42 {
				t.Errorf("caller %d got %v", i, v)
			}
		}
	})

	t.Run("blocked key does not block another", func(t *testing.T) {
		d := &Data{}
		started, release := make(chan struct{}), make(chan struct{})
		aDone := make(chan any)
		go func() { aDone <- d.Memo("A", func() any { close(started); <-release; return "a" }) }()
		<-started
		within(t, "key B during A's build", func() {
			if v := d.Memo("B", func() any { return "b" }); v != "b" {
				t.Errorf("B = %v", v)
			}
		})
		close(release)
		if v := <-aDone; v != "a" {
			t.Errorf("A = %v", v)
		}
	})

	t.Run("panicking build is retried", func(t *testing.T) {
		d := &Data{}
		started, release := make(chan struct{}), make(chan struct{})
		panicked := make(chan any)
		go func() {
			defer func() { panicked <- recover() }()
			d.Memo("P", func() any { close(started); <-release; panic("build failed") })
		}()
		<-started
		// A caller arriving during the doomed build waits for it, then
		// builds the value itself.
		waiter := make(chan any)
		go func() { waiter <- d.Memo("P", func() any { return 7 }) }()
		time.Sleep(10 * time.Millisecond)
		close(release)
		if r := <-panicked; r != "build failed" {
			t.Fatalf("builder recovered %v, want the build's panic", r)
		}
		within(t, "waiter of a panicked build", func() {
			if v := <-waiter; v != 7 {
				t.Errorf("waiter got %v, want 7", v)
			}
		})
		var builds int
		if v := d.Memo("P", func() any { builds++; return 8 }); v != 7 || builds != 0 {
			t.Errorf("after the retry: %v with %d builds, want the cached 7", v, builds)
		}
	})
}
