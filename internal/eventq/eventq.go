// Package eventq implements the discrete-event core of the simulator: a
// virtual clock with nanosecond resolution and a pluggable scheduler.
//
// All simulator components (links, switches, transport timers, workload
// generators) advance exclusively by scheduling callbacks on a single
// Scheduler. Events scheduled for the same instant run in FIFO order of
// scheduling, which keeps runs deterministic for a fixed seed.
//
// Two engines implement the same (at, seq) total order behind one API:
//
//   - EngineWheel (default): a hierarchical timing wheel (wheel.go) —
//     4 cascading levels of 256 slots at a ~1µs tick, with a small sorted
//     spill list for events beyond the wheel horizon. Near-horizon events
//     (link-serialization completions, RTO timers) insert and fire in O(1).
//   - EngineHeap: the inlined 4-ary min-heap, kept as a differential
//     reference. Both engines must produce byte-identical simulations;
//     the determinism regression and the cross-engine property test hold
//     them to it.
//
// The hot path is allocation-lean: popped and canceled events are recycled
// through a per-Scheduler freelist, so a steady-state run allocates no new
// event nodes. Timer handles are plain values carrying a generation
// counter; a handle to a recycled event is detected as stale and every
// operation on it is a safe no-op.
package eventq

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is deliberately a distinct type from time.Duration to keep
// wall-clock time out of the simulator.
type Time int64

// Common durations, expressed in Time units (nanoseconds).
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time; used as "never".
const MaxTime Time = math.MaxInt64

// PriFirst is the reserved most-urgent same-instant key for AtPri: an event
// carrying it runs before every other event at its instant, whatever their
// scheduling order. Among PriFirst events, scheduling order decides as
// usual. The simulator reserves it for workload arrivals and for events
// scheduled while the network is built, which must run ahead of the
// traffic of the instant they land on.
const PriFirst int64 = math.MinInt64

// Duration converts a time.Duration into simulator Time units.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds returns t expressed in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns t expressed in milliseconds as a float.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros returns t expressed in microseconds as a float.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Engine selects the scheduler's internal priority structure. Both engines
// realize the identical (at, seq) pop order; they differ only in cost
// profile.
type Engine uint8

const (
	// EngineWheel is the hierarchical timing wheel (default).
	EngineWheel Engine = iota
	// EngineHeap is the 4-ary min-heap reference engine.
	EngineHeap
)

// String names the engine as accepted by ParseEngine.
func (e Engine) String() string {
	if e == EngineHeap {
		return "heap"
	}
	return "wheel"
}

// ParseEngine maps a config/flag string to an Engine. The empty string
// selects the default (wheel).
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "wheel":
		return EngineWheel, nil
	case "heap":
		return EngineHeap, nil
	default:
		return EngineWheel, fmt.Errorf("eventq: unknown engine %q (want wheel or heap)", s)
	}
}

// event is a scheduled callback. pri orders events within an instant by an
// explicit caller-chosen key (0 for ordinary events; link deliveries carry a
// per-link key so same-instant arrivals order by link identity rather than
// scheduling history — the property that makes sharded runs byte-identical
// to sequential ones). seq breaks the remaining ties so that scheduling
// order is execution order. gen counts how many times the node has been
// recycled through the freelist; a Timer carrying an older gen is stale and
// operates as a no-op.
type event struct {
	at       Time
	pri      int64
	seq      uint64
	fn       func()
	gen      uint32
	canceled bool
	// index is the heap position for the heap engine; the wheel engine
	// uses the sentinels inWheelIdx/inSpillIdx. -1 once popped or
	// recycled, under either engine.
	index int32
}

// Wheel-engine index sentinels: the wheel never needs positional removal
// (cancellation is lazy), only "is this node still queued, and where would
// a sweep find it".
const (
	inWheelIdx int32 = 0 // resident in a wheel slot
	inSpillIdx int32 = 1 // resident in the sorted spill list
)

// Timer is a value handle to a scheduled event that can be canceled or
// queried. The zero Timer is valid: Cancel and Pending report false, When
// reports 0. A Timer outliving its event (fired or canceled-and-swept, node
// recycled) is detected via the generation counter and behaves the same.
type Timer struct {
	s   *Scheduler
	ev  *event
	gen uint32
}

// live reports whether the handle still refers to its original scheduling.
func (t Timer) live() bool {
	return t.ev != nil && t.ev.gen == t.gen
}

// Cancel prevents the timer's callback from running. Canceling an already
// fired or already canceled timer is a no-op. Cancel reports whether the
// callback was still pending.
//
// Cancel itself is O(1): it only tombstones the node. Reclamation is
// deferred — the heap engine compacts at the top of the run loop (never
// re-entrantly from inside a firing callback), and the wheel engine
// reclaims tombstones when their slot is next drained or cascaded.
func (t Timer) Cancel() bool {
	if !t.live() || t.ev.canceled || t.ev.index < 0 {
		return false
	}
	t.ev.canceled = true
	s := t.s
	switch s.engine {
	case EngineHeap:
		s.tombstones++
		// Retransmit-style timers are canceled far more often than they
		// fire; once tombstones dominate the heap, compact it so pops stay
		// O(log n) over live events and the nodes return to the freelist.
		// Inside the run loop the compaction is deferred to the top of the
		// loop: a callback canceling a sibling timer must not restructure
		// the heap mid-iteration.
		if s.tombstones*2 > len(s.heap) {
			if s.running {
				s.needSweep = true
			} else {
				s.sweep()
			}
		}
	default:
		if t.ev.index == inSpillIdx {
			// Spill tombstones would otherwise linger forever ("never"
			// timers are canceled, not fired); compaction runs at the
			// next refill, outside any firing callback.
			s.w.spillTombs++
		}
	}
	return true
}

// Pending reports whether the timer's callback has neither fired nor been
// canceled.
func (t Timer) Pending() bool {
	return t.live() && !t.ev.canceled && t.ev.index >= 0
}

// When returns the virtual time the timer is scheduled for, or 0 for a zero
// Timer or one whose event has already fired or been canceled.
func (t Timer) When() Time {
	if !t.live() {
		return 0
	}
	return t.ev.at
}

// Scheduler is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; each simulation is deliberately single-threaded so
// runs are reproducible (parallelism lives above whole runs, in
// internal/runner).
type Scheduler struct {
	now    Time
	seq    uint64
	engine Engine

	// --- heap engine state ---
	heap []*event // 4-ary min-heap ordered by (at, seq)
	// tombstones counts canceled events still occupying heap slots.
	tombstones int
	// needSweep defers tombstone compaction to the top of the run loop so
	// Cancel never restructures the heap from inside a firing callback.
	needSweep bool

	// --- wheel engine state ---
	w wheel

	// free holds recycled event nodes, shared by both engines.
	free []*event
	// queued counts event nodes currently scheduled (including canceled
	// ones not yet reclaimed), under either engine.
	queued   int
	executed uint64
	running  bool
	stopped  bool
}

// NewScheduler returns a scheduler with the clock at zero, using the
// default engine (the timing wheel).
func NewScheduler() *Scheduler {
	return NewSchedulerEngine(EngineWheel)
}

// NewSchedulerEngine returns a scheduler using the given engine. EngineHeap
// is the differential-testing reference; simulations are byte-identical
// under both.
func NewSchedulerEngine(e Engine) *Scheduler {
	return &Scheduler{engine: e}
}

// Engine reports which engine the scheduler runs on.
func (s *Scheduler) Engine() Engine { return s.engine }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Len returns the number of pending events (including canceled ones not yet
// discarded).
func (s *Scheduler) Len() int { return s.queued }

// Executed returns the number of callbacks run so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// panics: that is always a simulator bug, not a recoverable condition.
func (s *Scheduler) At(at Time, fn func()) Timer {
	return s.AtPri(at, 0, fn)
}

// AtPri is At with an explicit same-instant ordering key: events at one
// virtual instant execute in ascending pri, and by scheduling order within
// equal pri. Ordinary events use pri 0 (and so run before any same-instant
// link delivery, but after any same-instant PriFirst event); link
// deliveries pass a stable per-link key so that the execution order of
// same-instant arrivals is a function of the topology, not of which
// scheduler shard queued them first.
func (s *Scheduler) AtPri(at Time, pri int64, fn func()) Timer {
	if at < s.now {
		panic(fmt.Sprintf("eventq: scheduling at %v before now %v", at, s.now))
	}
	ev := s.alloc(at, pri, fn)
	if s.engine == EngineHeap {
		s.push(ev)
	} else {
		s.wheelInsert(ev)
	}
	s.queued++
	return Timer{s: s, ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current time. A delay that would
// overflow virtual time (d near MaxTime used as "never") clamps to MaxTime
// instead of wrapping negative.
func (s *Scheduler) After(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("eventq: negative delay %d", d))
	}
	at := s.now + d
	if at < s.now { // overflow: now + d wrapped past MaxTime
		at = MaxTime
	}
	return s.At(at, fn)
}

// Stop halts Run/RunUntil after the currently executing event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// alloc takes an event node off the freelist (or makes more) and stamps it.
// Nodes are allocated in blocks: the freelist never shrinks, so a growing
// simulation would otherwise pay one allocation per unit of peak pending
// events while it warms up.
func (s *Scheduler) alloc(at Time, pri int64, fn func()) *event {
	n := len(s.free)
	if n == 0 {
		block := make([]event, 64)
		for i := range block {
			block[i].index = -1
			s.free = append(s.free, &block[i])
		}
		n = len(s.free)
	}
	ev := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	ev.at, ev.pri, ev.seq, ev.fn = at, pri, s.seq, fn
	s.seq++
	return ev
}

// release bumps the node's generation — invalidating every outstanding
// Timer to it — and returns it to the freelist.
func (s *Scheduler) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.canceled = false
	ev.index = -1
	s.queued--
	s.free = append(s.free, ev)
}

// less orders events by (at, pri, seq): time first, then the explicit
// same-instant key, then scheduling order. seq is unique, so the order is
// total and runs are deterministic regardless of engine or intermediate
// layout.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// push appends ev and restores the heap property by sifting up. The 4-ary
// layout (children of i at 4i+1..4i+4) halves tree depth versus a binary
// heap, trading slightly pricier sift-downs for much cheaper inserts —
// the right trade for a scheduler where most events are pushed once and
// popped once in rough time order.
func (s *Scheduler) push(ev *event) {
	i := len(s.heap)
	s.heap = append(s.heap, ev)
	for i > 0 {
		p := (i - 1) / 4
		if !less(ev, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.heap[i].index = int32(i)
		i = p
	}
	s.heap[i] = ev
	ev.index = int32(i)
}

// siftDown restores the heap property from slot i downward.
func (s *Scheduler) siftDown(i int) {
	ev := s.heap[i]
	n := len(s.heap)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if less(s.heap[c], s.heap[best]) {
				best = c
			}
		}
		if !less(s.heap[best], ev) {
			break
		}
		s.heap[i] = s.heap[best]
		s.heap[i].index = int32(i)
		i = best
	}
	s.heap[i] = ev
	ev.index = int32(i)
}

// popMin removes and returns the earliest event.
func (s *Scheduler) popMin() *event {
	ev := s.heap[0]
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap[n] = nil
	s.heap = s.heap[:n]
	if n > 0 && last != ev {
		s.heap[0] = last
		s.siftDown(0)
	}
	ev.index = -1
	return ev
}

// sweep compacts canceled events out of the heap and rebuilds it in place.
// The (at, seq) order is total, so pop order — and therefore simulation
// output — is identical whatever the intermediate heap layout.
func (s *Scheduler) sweep() {
	live := s.heap[:0]
	for _, ev := range s.heap {
		if ev.canceled {
			s.release(ev)
		} else {
			live = append(live, ev)
		}
	}
	// Clear the tail so released nodes are not pinned by the backing array.
	for i := len(live); i < len(s.heap); i++ {
		s.heap[i] = nil
	}
	s.heap = live
	for i, ev := range s.heap {
		ev.index = int32(i)
	}
	// Note (n-2)/4 truncates toward zero, so guard the small cases rather
	// than relying on the loop bound going negative.
	if n := len(s.heap); n > 1 {
		for i := (n - 2) / 4; i >= 0; i-- {
			s.siftDown(i)
		}
	}
	s.tombstones = 0
}

// stepHeap pops and runs the next event. Returns false when the queue is
// empty or the next event is beyond limit.
func (s *Scheduler) stepHeap(limit Time) bool {
	for len(s.heap) > 0 {
		next := s.heap[0]
		if next.at > limit {
			return false
		}
		s.popMin()
		if next.canceled {
			s.tombstones--
			s.release(next)
			continue
		}
		at, fn := next.at, next.fn
		// Recycle before running: fn may schedule and the node can serve
		// the new event immediately; the old handle's gen is already stale.
		s.release(next)
		s.now = at
		s.executed++
		fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty or Stop is called.
func (s *Scheduler) Run() {
	s.run(MaxTime)
}

// RunUntil executes events with timestamps <= limit, then advances the clock
// to limit. Events beyond limit remain pending.
func (s *Scheduler) RunUntil(limit Time) {
	s.run(limit)
	if s.now < limit {
		s.now = limit
	}
}

func (s *Scheduler) run(limit Time) {
	if s.running {
		panic("eventq: Run re-entered")
	}
	s.running = true
	s.stopped = false
	defer func() { s.running = false }()
	if s.engine == EngineHeap {
		for !s.stopped {
			// Deferred tombstone compaction: requested by Cancel from
			// inside a callback, performed here between events where no
			// pop is in flight.
			if s.needSweep {
				s.sweep()
				s.needSweep = false
			}
			if !s.stepHeap(limit) {
				return
			}
		}
		return
	}
	s.runWheel(limit)
}
