package telemetry

import (
	"reflect"
	"runtime"
	"testing"
)

// refRing is the preallocated ring the recorder used before its storage
// grew on demand: the reference for growth→wrap equivalence.
type refRing struct {
	buf     []Event
	head, n int
	seq     uint64
}

func (r *refRing) emit(ev Event) {
	ev.Seq = r.seq
	r.seq++
	r.buf[r.head] = ev
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// since returns the retained events with Seq >= cursor, oldest first.
func (r *refRing) since(cursor uint64) []Event {
	var out []Event
	for i := 0; i < r.n; i++ {
		ev := r.buf[(r.head-r.n+i+len(r.buf))%len(r.buf)]
		if ev.Seq >= cursor {
			out = append(out, ev)
		}
	}
	return out
}

// TestRecorderGrowthMatchesPreallocatedRing: for emit counts just below,
// at and past capacity, the growing ring is observably identical to a
// preallocated one through every read accessor.
func TestRecorderGrowthMatchesPreallocatedRing(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64} {
		for _, emits := range []int{0, capacity - 1, capacity, capacity + 1, 2*capacity + 3} {
			r := NewRecorder(capacity)
			ref := &refRing{buf: make([]Event, capacity)}
			for i := 0; i < emits; i++ {
				ev := Event{Kind: KindCacheFill, PC: uint64(i), Val: uint64(i * i)}
				r.Emit(ev)
				ref.emit(ev)
			}
			if got, want := r.Events(), ref.since(0); !sameEvents(got, want) {
				t.Errorf("cap %d, %d emits: Events = %v, want %v", capacity, emits, got, want)
			}
			if r.Len() != ref.n || r.Total() != ref.seq || r.Dropped() != ref.seq-uint64(ref.n) {
				t.Errorf("cap %d, %d emits: Len/Total/Dropped = %d/%d/%d, want %d/%d/%d",
					capacity, emits, r.Len(), r.Total(), r.Dropped(), ref.n, ref.seq, ref.seq-uint64(ref.n))
			}
			for cursor := uint64(0); cursor <= ref.seq+1; cursor++ {
				got, next := r.EventsSince(cursor)
				if want := ref.since(cursor); !sameEvents(got, want) || next != ref.seq {
					t.Errorf("cap %d, %d emits: EventsSince(%d) = %v, %d; want %v, %d",
						capacity, emits, cursor, got, next, want, ref.seq)
				}
			}
		}
	}
}

func sameEvents(a, b []Event) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// allocBytes reports the heap bytes one call of f allocates, averaged
// over runs calls.
func allocBytes(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestRecorderStorageProportionalToEvents: a default-capacity recorder
// that sees a daemon job's worth of events (33 on average) pays for
// those, not for its 64 Ki-event bound.
func TestRecorderStorageProportionalToEvents(t *testing.T) {
	const budget = 64 << 10
	got := allocBytes(20, func() {
		r := NewRecorder(0)
		for i := 0; i < 33; i++ {
			r.Emit(Event{Kind: KindSpecEnter, PC: uint64(i)})
		}
	})
	if got >= budget {
		t.Fatalf("NewRecorder(0) + 33 emits allocated %d bytes, budget %d", got, budget)
	}
}

// BenchmarkRecorderEmit measures one stored event on a default-capacity
// recorder, including the ring's growth up to its bound.
func BenchmarkRecorderEmit(b *testing.B) {
	b.ReportAllocs()
	r := NewRecorder(0)
	for i := 0; i < b.N; i++ {
		r.Emit(Event{Kind: KindCacheFill, PC: uint64(i)})
	}
}
