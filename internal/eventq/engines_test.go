package eventq

import (
	"testing"

	"dibs/internal/rng"
)

// TestAfterOverflowClampsToMaxTime is the regression test for the After
// overflow bug: now + d wrapping negative used to panic as past-scheduling
// (or, worse, corrupt ordering). A "never"-style delay must clamp to
// MaxTime under both engines.
func TestAfterOverflowClampsToMaxTime(t *testing.T) {
	for _, e := range []Engine{EngineWheel, EngineHeap} {
		t.Run(e.String(), func(t *testing.T) {
			s := NewSchedulerEngine(e)
			s.At(100, func() {})
			s.RunUntil(100) // now = 100, so now + MaxTime overflows
			tm := s.After(MaxTime, func() { t.Fatal("never-timer fired") })
			if got := tm.When(); got != MaxTime {
				t.Fatalf("After(MaxTime) scheduled at %d, want MaxTime", got)
			}
			// A second overflow-range delay must order after everything
			// finite and not disturb the clock.
			s.After(MaxTime-50, func() { t.Fatal("never-timer fired") })
			fired := false
			s.After(10, func() { fired = true })
			s.RunUntil(1000)
			if !fired {
				t.Fatal("finite timer did not fire")
			}
			if s.Now() != 1000 {
				t.Fatalf("clock at %v, want 1000", s.Now())
			}
			if !tm.Cancel() {
				t.Fatal("never-timer was not pending")
			}
		})
	}
}

// TestCancelInsideCallbackDefersCompaction is the regression test for the
// re-entrant tombstone sweep: a callback canceling enough sibling timers to
// cross the sweep threshold must not compact the structure mid-pop. The
// canceled timers must not fire, the survivors must fire in order, and
// handles must stay coherent.
func TestCancelInsideCallbackDefersCompaction(t *testing.T) {
	for _, e := range []Engine{EngineWheel, EngineHeap} {
		t.Run(e.String(), func(t *testing.T) {
			s := NewSchedulerEngine(e)
			const n = 64
			var timers []Timer
			var fired []int
			// Interleave victims across the whole horizon so the cancels
			// hit events at many positions of the live structure.
			for i := 0; i < n; i++ {
				i := i
				timers = append(timers, s.At(Time(10+i), func() { fired = append(fired, i) }))
			}
			// The first event cancels every odd sibling — from inside the
			// run loop, crossing the heap's tombstones*2 > len threshold.
			s.At(5, func() {
				for i := 1; i < n; i += 2 {
					if !timers[i].Cancel() {
						t.Errorf("cancel %d failed", i)
					}
				}
			})
			s.Run()
			if len(fired) != n/2 {
				t.Fatalf("fired %d events, want %d", len(fired), n/2)
			}
			for k, v := range fired {
				if v != 2*k {
					t.Fatalf("fired order wrong at %d: got %d, want %d", k, v, 2*k)
				}
			}
			for i, tm := range timers {
				if tm.Pending() {
					t.Fatalf("timer %d still pending after run", i)
				}
			}
		})
	}
}

// TestCancelNextEventInsideCallback pins the sharpest re-entrancy case: a
// firing callback cancels the event that is immediately next at the same
// instant, while enough tombstones exist to trigger a sweep.
func TestCancelNextEventInsideCallback(t *testing.T) {
	for _, e := range []Engine{EngineWheel, EngineHeap} {
		t.Run(e.String(), func(t *testing.T) {
			s := NewSchedulerEngine(e)
			var got []string
			var next Timer
			// Build up tombstone pressure first.
			for i := 0; i < 8; i++ {
				s.At(50, func() {}).Cancel()
			}
			s.At(50, func() {
				got = append(got, "a")
				if !next.Cancel() {
					t.Error("cancel of same-instant successor failed")
				}
			})
			next = s.At(50, func() { got = append(got, "b") })
			s.At(50, func() { got = append(got, "c") })
			s.Run()
			if len(got) != 2 || got[0] != "a" || got[1] != "c" {
				t.Fatalf("got %v, want [a c]", got)
			}
		})
	}
}

// popRecord is one fired event in a differential trace.
type popRecord struct {
	at  Time
	tag int
}

// TestEnginesAgreeOnRandomWorkloads is the wheel/heap differential property
// test: randomized schedule/cancel/reschedule workloads — same-instant
// bursts, cascade-boundary deltas, spill-range "never" timers — must
// produce identical (at, tag) pop sequences under both engines. Workloads
// derive from internal/rng so failures reproduce exactly.
func TestEnginesAgreeOnRandomWorkloads(t *testing.T) {
	const (
		trials   = 40
		nSeed    = 400 // events seeded before running
		nDynamic = 6   // events each callback may spawn
	)
	for trial := 0; trial < trials; trial++ {
		runTrace := func(e Engine) []popRecord {
			r := rng.New(int64(trial), "eventq/engines-agree")
			s := NewSchedulerEngine(e)
			var trace []popRecord
			var timers []Timer
			tag := 0
			// Delay classes cover every wheel path: same-instant ties,
			// sub-tick, level-0, cascade boundaries at each level, and the
			// spill horizon.
			delay := func() Time {
				switch r.Intn(10) {
				case 0:
					return 0 // same instant
				case 1:
					return Time(r.Intn(1 << tickShift)) // sub-tick
				case 2, 3, 4:
					return Time(r.Intn(200 << tickShift)) // level 0
				case 5, 6:
					return Time(r.Intn(1 << (tickShift + 2*levelBits))) // level 1
				case 7:
					return Time(r.Intn(1 << (tickShift + 3*levelBits))) // level 2
				case 8:
					// Hug cascade boundaries: a power-of-two span ± a hair.
					base := Time(1) << uint(tickShift+levelBits*(1+r.Intn(3)))
					return base + Time(r.Intn(5)) - 2
				default:
					return MaxTime - Time(r.Intn(3)) // spill / overflow clamp
				}
			}
			var fire func(int) func()
			fire = func(myTag int) func() {
				return func() {
					trace = append(trace, popRecord{s.Now(), myTag})
					for k := r.Intn(nDynamic); k > 0; k-- {
						switch r.Intn(4) {
						case 0, 1: // cancel a random outstanding timer
							if len(timers) > 0 {
								timers[r.Intn(len(timers))].Cancel()
							}
						case 2: // reschedule: cancel + re-arm
							if len(timers) > 0 {
								i := r.Intn(len(timers))
								if timers[i].Cancel() {
									tag++
									timers[i] = s.After(delay(), fire(tag))
								}
							}
						default: // spawn a fresh timer (kept subcritical:
							// each fire consumes one event and adds <1 on
							// average, so every trial dies out)
							tag++
							timers = append(timers, s.After(delay(), fire(tag)))
						}
					}
				}
			}
			for i := 0; i < nSeed; i++ {
				tag++
				timers = append(timers, s.At(delay(), fire(tag)))
			}
			// Run in bounded windows so RunUntil's mid-drain stop/resume
			// path is exercised too, then drain the finite remainder.
			for _, limit := range []Time{1 << 18, 1 << 26, 1 << 34} {
				s.RunUntil(limit)
			}
			for _, tm := range timers {
				if tm.When() > 1<<40 {
					tm.Cancel() // drop "never" timers so Run terminates
				}
			}
			// Run (not RunUntil) so both engines also reclaim the canceled
			// far-future tombstones and drain completely.
			s.Run()
			if s.Len() != 0 {
				t.Fatalf("trial %d: %d events still pending", trial, s.Len())
			}
			return trace
		}
		wheel := runTrace(EngineWheel)
		heap := runTrace(EngineHeap)
		if len(wheel) != len(heap) {
			t.Fatalf("trial %d: wheel fired %d events, heap %d", trial, len(wheel), len(heap))
		}
		for i := range wheel {
			if wheel[i] != heap[i] {
				t.Fatalf("trial %d: pop %d diverges: wheel (at=%d tag=%d), heap (at=%d tag=%d)",
					trial, i, wheel[i].at, wheel[i].tag, heap[i].at, heap[i].tag)
			}
		}
	}
}

// TestSpillTimersFireInOrder covers the overflow list end to end: events
// beyond the wheel horizon must migrate back into the wheel and fire in
// (at, seq) order, including ties.
func TestSpillTimersFireInOrder(t *testing.T) {
	s := NewScheduler()
	horizon := Time(span(3)) << tickShift
	var got []int
	for i, at := range []Time{horizon * 3, horizon * 2, horizon * 2, horizon*2 + 7, horizon * 5} {
		i := i
		s.At(at, func() { got = append(got, i) })
	}
	canceled := s.At(horizon*2+3, func() { t.Fatal("canceled spill timer fired") })
	canceled.Cancel()
	s.Run()
	want := []int{1, 2, 3, 0, 4}
	if len(got) != len(want) {
		t.Fatalf("fired %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("spill order: got %v, want %v", got, want)
		}
	}
}

// TestPriFirstPrecedesSameInstantEvents pins the reserved most-urgent key
// under both engines: a PriFirst event runs before every other event at its
// instant, including pri-0 events with a smaller seq, negative keys and
// link-delivery keys, wherever the engine holds it — a wheel slot at any
// level, the live tick a callback inserts into (the drainInsert path), or
// the spill list beyond the wheel horizon. Among PriFirst events scheduling
// order still decides.
func TestPriFirstPrecedesSameInstantEvents(t *testing.T) {
	horizon := Time(span(3)) << tickShift
	for _, e := range []Engine{EngineWheel, EngineHeap} {
		t.Run(e.String(), func(t *testing.T) {
			type want []string
			check := func(t *testing.T, got []string, w want) {
				t.Helper()
				if len(got) != len(w) {
					t.Fatalf("fired %v, want %v", got, w)
				}
				for i := range w {
					if got[i] != w[i] {
						t.Fatalf("fired %v, want %v", got, w)
					}
				}
			}

			// Queued before the run: level 0 (50ns), a higher level that
			// cascades (3ms) and the spill list (2x the horizon).
			for _, at := range []Time{50, 3 * Millisecond, 2 * horizon} {
				s := NewSchedulerEngine(e)
				var got []string
				rec := func(name string) func() { return func() { got = append(got, name) } }
				s.At(at, rec("pri0-a"))
				s.AtPri(at, 7, rec("link"))
				s.AtPri(at, -3, rec("neg"))
				s.At(at, rec("pri0-b"))
				s.AtPri(at, PriFirst, rec("first-1"))
				s.AtPri(at, PriFirst, rec("first-2"))
				s.At(at-1, rec("before"))
				s.Run()
				check(t, got, want{"before", "first-1", "first-2", "neg", "pri0-a", "pri0-b", "link"})
			}

			// Inserted from inside a firing callback into the live tick:
			// the same instant (current sub-bucket) and a later instant of
			// the same tick (a later sub-bucket), each already holding
			// pri-0 events with smaller seqs.
			s := NewSchedulerEngine(e)
			var got []string
			rec := func(name string) func() { return func() { got = append(got, name) } }
			s.At(100, func() {
				got = append(got, "trigger")
				s.AtPri(100, PriFirst, rec("first-now"))
				s.AtPri(900, PriFirst, rec("first-later"))
			})
			s.At(100, rec("pri0-now"))
			s.AtPri(100, 5, rec("link-now"))
			s.At(900, rec("pri0-later"))
			s.Run()
			check(t, got, want{"trigger", "first-now", "pri0-now", "link-now", "first-later", "pri0-later"})

			// Inserted from inside a callback into the spill list, next to
			// a pri-0 event parked there before the run started.
			s = NewSchedulerEngine(e)
			got = nil
			far := 3*horizon + 11
			s.At(far, rec("pri0-far"))
			s.At(10, func() { s.AtPri(far, PriFirst, rec("first-far")) })
			s.Run()
			check(t, got, want{"first-far", "pri0-far"})
		})
	}
}
