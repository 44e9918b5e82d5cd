package obs

import (
	"testing"
)

func TestTracerRingBoundedOverwritesOldest(t *testing.T) {
	tr := NewTracer(4)
	rec := tr.Recorder(0)
	for i := 0; i < 10; i++ {
		rec.Emit(Event{Type: EvAdmit, N: int64(i)})
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4 (ring capacity)", got)
	}
	if got := tr.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("Events returned %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		// Oldest first: the retained window is events 6..9.
		if want := int64(6 + i); ev.N != want {
			t.Fatalf("event %d: N = %d, want %d (oldest-first ordering)", i, ev.N, want)
		}
	}
}

func TestTracerEventsBeforeWraparound(t *testing.T) {
	tr := NewTracer(8)
	rec := tr.Recorder(3)
	for i := 0; i < 5; i++ {
		rec.Emit(Event{Type: EvRoundBegin, Round: int64(i)})
	}
	evs := tr.Events()
	if len(evs) != 5 || tr.Dropped() != 0 {
		t.Fatalf("got %d events, %d dropped; want 5, 0", len(evs), tr.Dropped())
	}
	for i, ev := range evs {
		if ev.Round != int64(i) {
			t.Fatalf("event %d: round %d, want %d", i, ev.Round, i)
		}
		if ev.Replica != 3 {
			t.Fatalf("event %d: replica %d, want 3 (stamped by recorder)", i, ev.Replica)
		}
	}
}

func TestDisabledRecorderZeroAlloc(t *testing.T) {
	var rec Recorder // zero value = disabled
	if rec.Enabled() {
		t.Fatal("zero-value recorder reports enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		rec.Emit(Event{Type: EvAdmit, Round: 12, Req: 34, N: 56})
	})
	if allocs != 0 {
		t.Fatalf("disabled Emit allocates %.1f per call, want 0", allocs)
	}
}

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	rec := tr.Recorder(2)
	if rec.Enabled() {
		t.Fatal("recorder from nil tracer reports enabled")
	}
	rec.Emit(Event{Type: EvAdmit}) // must not panic
	if tr.Len() != 0 || tr.Total() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer accessors must report empty")
	}
}

func TestEventTypeStrings(t *testing.T) {
	seen := map[string]bool{}
	for ty := EvRoundBegin; ty <= EvSpan; ty++ {
		s := ty.String()
		if s == "unknown" || s == "" {
			t.Fatalf("event type %d has no taxonomy name", ty)
		}
		if seen[s] {
			t.Fatalf("duplicate taxonomy name %q", s)
		}
		seen[s] = true
	}
	if EventType(200).String() != "unknown" {
		t.Fatal("out-of-range type must stringify as unknown")
	}
}
