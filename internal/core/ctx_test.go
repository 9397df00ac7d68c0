package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"prefcqa/internal/bitset"
)

// TestPreCancelledContext: a context cancelled before the call returns
// promptly with context.Canceled from every ctx-aware entry point,
// without evaluating any component.
func TestPreCancelledContext(t *testing.T) {
	p := clustersPriority(t, 50, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, eng := range engineConfigs() {
		for _, f := range Families {
			start := time.Now()
			if _, err := eng.CountCtx(ctx, f, p); !errors.Is(err, context.Canceled) {
				t.Errorf("%s, %s: CountCtx err = %v, want context.Canceled", name, f, err)
			}
			if _, err := eng.CountCachedCtx(ctx, f, p, NewCountCache()); !errors.Is(err, context.Canceled) {
				t.Errorf("%s, %s: CountCachedCtx err = %v, want context.Canceled", name, f, err)
			}
			yielded := 0
			err := eng.EnumerateCtx(ctx, f, p, func(*bitset.Set) bool { yielded++; return true })
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s, %s: EnumerateCtx err = %v, want context.Canceled", name, f, err)
			}
			if yielded != 0 {
				t.Errorf("%s, %s: EnumerateCtx yielded %d repairs after cancellation", name, f, yielded)
			}
			if _, err := eng.ChoicesForCtx(ctx, f, p, p.Graph().Components()); !errors.Is(err, context.Canceled) {
				t.Errorf("%s, %s: ChoicesForCtx err = %v, want context.Canceled", name, f, err)
			}
			if d := time.Since(start); d > 2*time.Second {
				t.Errorf("%s, %s: cancelled calls took %v, want prompt return", name, f, d)
			}
		}
	}
}

// TestMidEnumerationCancel: cancelling while the cross-product walk is
// in flight stops it with the context error, not a completed result.
func TestMidEnumerationCancel(t *testing.T) {
	p := clustersPriority(t, 12, 3) // 4^12 Rep repairs: never completes in the budget
	ctx, cancel := context.WithCancel(context.Background())
	eng := NewEngine(WithWorkers(2), WithMemo(false))
	n := 0
	err := eng.EnumerateCtx(ctx, Rep, p, func(*bitset.Set) bool {
		n++
		if n == 100 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("EnumerateCtx err = %v after %d repairs, want context.Canceled", err, n)
	}
	if want, _ := Sequential().Count(Rep, p); int64(n) >= want {
		t.Fatalf("walk ran to completion (%d repairs) despite cancellation", n)
	}
}

// TestBackgroundContextUnchanged: the ctx-aware paths with a
// background context are the plain paths — identical results.
func TestBackgroundContextUnchanged(t *testing.T) {
	p := clustersPriority(t, 6, 3)
	ctx := context.Background()
	for _, f := range Families {
		want, wantErr := Sequential().Count(f, p)
		eng := NewEngine(WithWorkers(4), WithMemo(true))
		got, gotErr := eng.CountCtx(ctx, f, p)
		if got != want || !errors.Is(gotErr, wantErr) {
			t.Fatalf("%s: CountCtx = %d, %v, want %d, %v", f, got, gotErr, want, wantErr)
		}
		var repairs []*bitset.Set
		if err := eng.EnumerateCtx(ctx, f, p, func(s *bitset.Set) bool {
			repairs = append(repairs, s.Clone())
			return true
		}); err != nil {
			t.Fatalf("%s: EnumerateCtx err = %v", f, err)
		}
		wantAll := All(f, p)
		if len(repairs) != len(wantAll) {
			t.Fatalf("%s: EnumerateCtx yielded %d repairs, want %d", f, len(repairs), len(wantAll))
		}
		for i := range repairs {
			if !repairs[i].Equal(wantAll[i]) {
				t.Fatalf("%s: repair %d differs from sequential reference", f, i)
			}
		}
	}
}
