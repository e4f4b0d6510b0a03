package montecarlo

import (
	"context"
	"errors"
	"testing"

	"pcmcomp/internal/ecc/ecp"
)

// progressLog records onPoint callbacks and checks the meter contract:
// done never decreases, total never changes, and the final tick is
// (total, total).
type progressLog struct {
	calls [][2]int
}

func (p *progressLog) onPoint(done, total int) {
	p.calls = append(p.calls, [2]int{done, total})
}

func (p *progressLog) verify(t *testing.T, total int) {
	t.Helper()
	if len(p.calls) == 0 {
		t.Fatal("no progress callbacks fired")
	}
	prev := -1
	for i, c := range p.calls {
		if c[1] != total {
			t.Errorf("call %d reported total %d, want %d", i, c[1], total)
		}
		if c[0] < prev {
			t.Errorf("progress went backwards: %d after %d", c[0], prev)
		}
		prev = c[0]
	}
	if last := p.calls[len(p.calls)-1]; last[0] != total {
		t.Errorf("final callback (%d, %d), want (%d, %d)", last[0], last[1], total, total)
	}
}

// TestCurveProgressMonotonic pins the normal-completion callback sequence:
// one tick per point, monotone, ending at (total, total).
func TestCurveProgressMonotonic(t *testing.T) {
	const maxErrors = 9
	var log progressLog
	curve, err := NewRunner().AppendCurve(context.Background(), nil, ecp.New(6), 32, maxErrors, 50, 1, log.onPoint)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != maxErrors {
		t.Fatalf("curve length %d, want %d", len(curve), maxErrors)
	}
	if len(log.calls) != maxErrors {
		t.Fatalf("%d callbacks, want %d", len(log.calls), maxErrors)
	}
	log.verify(t, maxErrors)
}

// TestCurveProgressFinalOnCancel is the regression test for the early-
// cancellation path: a curve canceled mid-sweep must still deliver a final
// onPoint(total, total) tick (after the per-point ticks already fired), so
// progress meters close out instead of freezing at the cancellation point,
// and the partial prefix comes back with ctx.Err().
func TestCurveProgressFinalOnCancel(t *testing.T) {
	const maxErrors, cancelAt = 12, 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var log progressLog
	curve, err := NewRunner().AppendCurve(ctx, nil, ecp.New(6), 32, maxErrors, 50, 1,
		func(done, total int) {
			log.onPoint(done, total)
			if done == cancelAt {
				cancel()
			}
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(curve) != cancelAt {
		t.Fatalf("partial curve has %d points, want the %d completed before cancel", len(curve), cancelAt)
	}
	log.verify(t, maxErrors)
	if len(log.calls) != cancelAt+1 {
		t.Fatalf("%d callbacks, want %d per-point ticks plus the final close-out", len(log.calls), cancelAt)
	}
}

// TestCurveProgressCanceledBeforeStart: a context canceled before the
// first point still closes the meter out and returns an empty prefix.
func TestCurveProgressCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var log progressLog
	curve, err := NewRunner().AppendCurve(ctx, nil, ecp.New(6), 32, 8, 50, 1, log.onPoint)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(curve) != 0 {
		t.Fatalf("curve has %d points, want 0", len(curve))
	}
	log.verify(t, 8)
}
