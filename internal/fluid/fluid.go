// Package fluid models designated long flows as piecewise-constant rate
// processes instead of per-packet events (the hybrid fast path of DESIGN
// §9). On every coarse engine tick — an ordinary event on the simulation's
// eventq.Scheduler, so determinism, the timing wheel, and sharding rules
// are untouched — the engine:
//
//  1. credits each fluid flow rate·dt bytes (delivered straight to the
//     transport endpoints, no packets borrowed),
//  2. promotes every flow crossing a link whose packet queue has entered
//     the incast regime back to packet fidelity (DIBS's interesting
//     physics are per-packet; see the paper's §5),
//  3. lets the hybrid layer demote newly stable flows via OnTick, and
//  4. re-solves the max-min fair-share rate allocation over the residual
//     link capacities, folding each link's fluid occupancy back into the
//     packet world (queue.FluidShare + the port's residual service rate)
//     so packet traffic keeps seeing correct depth, drop, and detour
//     decisions.
//
// Rates and byte accumulators are float64; all comparisons use relative
// tolerances (never ==), and all durations are eventq.Time. The flow set
// is kept in flow-ID order and the solver visits links in registration
// order, so a run is a pure function of the schedule — byte-identical
// across repeats, engines, and host machines.
package fluid

import (
	"math"
	"sort"

	"dibs/internal/eventq"
	"dibs/internal/queue"
)

// rateEps is the relative tolerance for fair-share comparisons: two shares
// within this fraction are "the same bottleneck".
const rateEps = 1e-9

// stickFrac is the hysteresis band for a flow's standing-charge site: the
// flow keeps charging its previous bottleneck link while that link's share
// stays within this fraction of the round minimum (see solve).
const stickFrac = 0.1

// satFrac: a link whose allocated fluid throughput consumes at least this
// fraction of its residual capacity is fluid-saturated — a standing queue
// of fluid traffic exists there, and packet traffic is charged for it.
const satFrac = 0.95

// minResidualFrac floors the residual capacity the solver offers fluid
// flows at this fraction of the nominal link rate, so a packet-load
// measurement spike cannot fully starve the fluid allocation during
// transients.
const minResidualFrac = 0.05

// pktLoadGain is the EWMA gain for the per-link packet-throughput
// measurement that the solver subtracts from link capacity.
const pktLoadGain = 0.5

// Link is the fluid view of one directed link. The caller registers every
// link packet traffic can traverse; only links actually crossed by a fluid
// flow cost anything per tick.
type Link struct {
	// CapBps is the nominal link rate in bits/second.
	CapBps int64
	// QLen reports the packet queue's real (packet-only) length.
	QLen func() int
	// PktBytes reports cumulative packet bytes offered to (accepted by)
	// the link; the engine differentiates it per tick to measure the
	// packet load the solver subtracts from capacity. Counting arrivals
	// (not transmissions) keeps the measurement independent of delivery-
	// side effects of the fold.
	PktBytes func() uint64
	// SetFold pushes the link's standing-queue delay into the packet
	// transmitter (OutPort.SetFluid). Packet serialization itself stays
	// at the full link rate: in FIFO order, fluid bytes arriving after a
	// real packet queue behind it, so present packet traffic is never
	// slowed by the fluid flows' future arrivals — instead the engine
	// yields the measured packet load on its next tick.
	SetFold func(standing eventq.Time)
	// Share receives the link's fluid occupancy in packet equivalents,
	// folded into the queue's capacity and Full checks. Nil when the
	// discipline has no capacity to fold into (Infinite).
	Share *queue.FluidShare
	// StandingPkts is the occupancy charged while the link is
	// fluid-saturated: the standing queue a long packet flow would keep
	// at this bottleneck (DCTCP pins it at the marking threshold).
	StandingPkts int
	// StandingDelay is the extra per-packet delivery latency of that
	// standing queue (StandingPkts full-rate serialization times).
	StandingDelay eventq.Time
	// PromotePkts, when > 0, is the effective queue length (packets +
	// fluid share) at which every fluid flow crossing this link is
	// promoted back to packet fidelity.
	PromotePkts int

	nflows     int     // fluid flows currently crossing this link
	pktBps     float64 // EWMA packet offered load
	lastPkt    uint64  // PktBytes at the previous measurement
	measured   bool    // lastPkt is valid
	avail      float64 // solver scratch: residual capacity not yet allocated
	availCap   float64 // solver scratch: residual capacity at round start
	unfrozen   int     // solver scratch: flows not yet frozen on this link
	fluidBps   float64 // sum of allocated fluid rates
	bottleneck bool    // some flow's rate was frozen first at this link
	folded     bool    // a nonzero fold is currently pushed into the port
}

// share returns the fair share a new flow would get on l right now (solver
// scratch state).
func (l *Link) share() float64 { return l.avail / float64(l.unfrozen) }

// Hot reports whether the link is in the incast regime: its effective
// queue — real packets plus folded fluid share — crossed the promotion
// watermark. Queue depth is the only signal that works across fabrics: an
// arrival-rate test misfires on oversubscribed uplinks, where ordinary
// cwnd bursts arrive at NIC line rate (several times uplink capacity)
// without ever building a standing queue. Links with PromotePkts == 0
// (host NICs: sender fan-in, never transit incast) are never hot. The
// hybrid layer also uses this to keep stable flows from demoting onto a
// contended path.
func (l *Link) Hot() bool {
	return l.PromotePkts > 0 && l.QLen()+l.Share.Pkts() >= l.PromotePkts
}

// Flow is one rate-modeled transfer.
type Flow struct {
	// ID orders flows deterministically (the transport flow ID).
	ID uint64
	// Path lists the links the flow's packets would traverse, in order,
	// replicating the packet world's flow-level ECMP choices.
	Path []*Link
	// Remaining is the byte count still to deliver; the engine decrements
	// it as credits flow.
	Remaining int64
	// OnDeliver credits n bytes to the endpoints (receiver first, then
	// the sender's cumulative-ack state).
	OnDeliver func(n int64)
	// OnComplete fires once when Remaining reaches zero; the flow has
	// already been removed from the engine.
	OnComplete func()
	// OnPromote fires when a link on the path enters the incast regime:
	// the flow has been removed from the engine and must resume packet
	// transmission from its cumulative-ack point.
	OnPromote func(remaining int64)

	rateBps float64
	acc     float64 // fractional-byte accumulator
	frozen  bool    // solver scratch
	bneck   *Link   // sticky standing-charge site (see solve)
}

// RateBps returns the flow's current allocated rate (for tests/metrics).
func (f *Flow) RateBps() float64 { return f.rateBps }

// Engine advances all fluid flows on a fixed tick.
type Engine struct {
	sched *eventq.Scheduler
	tick  eventq.Time

	links  []*Link // registration order
	flows  []*Flow // ID order
	active []*Link // links with nflows > 0, registration order
	dirty  bool    // active set needs rebuilding

	lastTick eventq.Time
	running  bool
	tickFn   func() // bound once; rescheduling allocates nothing

	// OnTick fires at the end of every tick, after deliveries and
	// promotions but before the rate solve — the hybrid layer's hook for
	// scanning demotion candidates (flows admitted here are priced into
	// the same tick's solve).
	OnTick func()

	// DeliveredBytes totals fluid-delivered bytes (conservation checks).
	DeliveredBytes uint64
	// Promotions counts flows returned to packet fidelity by the incast
	// trigger.
	Promotions uint64

	promoteScratch []*Flow // reused each tick
}

// NewEngine creates an engine ticking every tick on sched. The tick is the
// fluid model's time resolution: rate changes, deliveries, and
// promote/demote decisions all happen on tick boundaries.
func NewEngine(sched *eventq.Scheduler, tick eventq.Time) *Engine {
	if tick <= 0 {
		panic("fluid: tick must be positive")
	}
	e := &Engine{sched: sched, tick: tick}
	e.tickFn = e.onTick
	return e
}

// AddLink registers a link. Links must be registered before Start.
func (e *Engine) AddLink(l *Link) {
	if l.CapBps <= 0 {
		panic("fluid: link capacity must be positive")
	}
	e.links = append(e.links, l)
}

// Start begins ticking. The first tick fires one tick from now, ahead of
// every event at that instant scheduled after Start (it carries
// eventq.PriFirst, and so do workload arrivals, which are queued later).
func (e *Engine) Start() {
	if e.running {
		return
	}
	e.running = true
	e.lastTick = e.sched.Now()
	e.sched.AtPri(e.lastTick+e.tick, eventq.PriFirst, e.tickFn)
}

// Flows returns the number of flows currently under fluid control.
func (e *Engine) Flows() int { return len(e.flows) }

// Admit places f under fluid control. Credits begin at the next tick; the
// flow's first rate comes from the next solve. Admitting from inside
// OnTick is the intended demotion path — the flow is priced into that same
// tick's solve.
func (e *Engine) Admit(f *Flow) {
	if f.Remaining <= 0 {
		panic("fluid: admitted flow has nothing to deliver")
	}
	if len(f.Path) == 0 {
		panic("fluid: admitted flow has an empty path")
	}
	i := sort.Search(len(e.flows), func(i int) bool { return e.flows[i].ID >= f.ID })
	if i < len(e.flows) && e.flows[i].ID == f.ID {
		panic("fluid: flow admitted twice")
	}
	e.flows = append(e.flows, nil)
	copy(e.flows[i+1:], e.flows[i:])
	e.flows[i] = f
	for _, l := range f.Path {
		l.nflows++
	}
	e.dirty = true
}

// remove takes f out of the engine (completion or promotion).
func (e *Engine) remove(f *Flow) {
	i := sort.Search(len(e.flows), func(i int) bool { return e.flows[i].ID >= f.ID })
	if i >= len(e.flows) || e.flows[i] != f {
		panic("fluid: removing unknown flow")
	}
	copy(e.flows[i:], e.flows[i+1:])
	e.flows = e.flows[:len(e.flows)-1]
	for _, l := range f.Path {
		l.nflows--
	}
	e.dirty = true
}

// onTick is the engine heartbeat.
func (e *Engine) onTick() {
	now := e.sched.Now()
	dt := now - e.lastTick
	e.lastTick = now

	e.deliver(dt)
	e.measure(dt)
	e.promote()
	if e.OnTick != nil {
		e.OnTick()
	}
	e.rebuildActive()
	e.solve()
	e.fold()

	e.sched.After(e.tick, e.tickFn)
}

// deliver credits every flow rate·dt bytes and completes drained flows.
func (e *Engine) deliver(dt eventq.Time) {
	// Completion removes flows mid-iteration; walk by index over a stable
	// prefix view. remove() only shifts elements left, so compensating
	// the index keeps the walk in ID order.
	for i := 0; i < len(e.flows); i++ {
		f := e.flows[i]
		f.acc += f.rateBps * dt.Seconds() / 8
		n := int64(f.acc)
		if n <= 0 {
			continue
		}
		if n >= f.Remaining {
			n = f.Remaining
			f.acc = 0
		} else {
			f.acc -= float64(n)
		}
		f.Remaining -= n
		e.DeliveredBytes += uint64(n)
		if f.OnDeliver != nil {
			f.OnDeliver(n)
		}
		if f.Remaining <= 0 {
			e.remove(f)
			i--
			if f.OnComplete != nil {
				f.OnComplete()
			}
		}
	}
}

// measure updates each active link's packet offered-load EWMA from the
// arrival counter delta.
func (e *Engine) measure(dt eventq.Time) {
	secs := dt.Seconds()
	if secs <= 0 {
		return
	}
	for _, l := range e.active {
		pkt := l.PktBytes()
		if !l.measured {
			l.lastPkt, l.measured = pkt, true
			continue
		}
		inst := float64(pkt-l.lastPkt) * 8 / secs
		l.lastPkt = pkt
		l.pktBps += pktLoadGain * (inst - l.pktBps)
	}
}

// promote returns every flow crossing an incast-regime link to packet
// fidelity. The effective length (real packets plus the fluid share
// already folded in) crossing PromotePkts is DIBS's signal that per-packet
// physics — detours, drops, retransmissions — are about to matter.
func (e *Engine) promote() {
	hot := false
	for _, l := range e.active {
		if l.nflows > 0 && l.Hot() {
			hot = true
			break
		}
	}
	if !hot {
		return
	}
	// Collect first (ID order), then remove and notify: OnPromote
	// restarts packet transmission, which must not observe a half-walked
	// flow list.
	victims := e.promoteScratch[:0]
	for _, f := range e.flows {
		for _, l := range f.Path {
			if l.Hot() {
				victims = append(victims, f)
				break
			}
		}
	}
	for _, f := range victims {
		e.remove(f)
	}
	for i, f := range victims {
		e.Promotions++
		victims[i] = nil
		if f.OnPromote != nil {
			f.OnPromote(f.Remaining)
		}
	}
	e.promoteScratch = victims[:0]
}

// rebuildActive refreshes the set of links carrying fluid flows, clearing
// the folds of links that dropped out.
func (e *Engine) rebuildActive() {
	if !e.dirty {
		return
	}
	e.dirty = false
	e.active = e.active[:0]
	for _, l := range e.links {
		if l.nflows > 0 {
			e.active = append(e.active, l)
			continue
		}
		l.pktBps = 0
		l.measured = false
		if l.folded {
			l.folded = false
			l.fluidBps = 0
			l.Share.SetPkts(0)
			if l.SetFold != nil {
				l.SetFold(0)
			}
		}
	}
}

// solve computes the max-min fair-share allocation (progressive filling)
// of every flow over the residual capacity of its path. Fluid flows are
// greedy — a demoted flow is by construction in its bandwidth-limited
// steady state, so its rate is whatever fair share the topology yields,
// exactly as a long DCTCP flow's would be.
func (e *Engine) solve() {
	for _, l := range e.active {
		avail := float64(l.CapBps) - l.pktBps
		if floor := minResidualFrac * float64(l.CapBps); avail < floor {
			avail = floor
		}
		l.avail = avail
		l.availCap = avail
		l.unfrozen = l.nflows
		l.fluidBps = 0
		l.bottleneck = false
	}
	remaining := 0
	for _, f := range e.flows {
		f.frozen = false
		f.rateBps = 0
		remaining++
	}
	for remaining > 0 {
		// The tightest per-flow share over all contended links.
		min := math.MaxFloat64
		for _, l := range e.active {
			if l.unfrozen > 0 && l.share() < min {
				min = l.share()
			}
		}
		// Freeze every unfrozen flow crossing a bottleneck (a link whose
		// share is within tolerance of the minimum) at that share. At
		// least the minimum link's flows freeze, so each round makes
		// progress.
		progressed := false
		for _, f := range e.flows {
			if f.frozen {
				continue
			}
			// The flow freezes at the first path link whose share is
			// within tolerance of the minimum. That link is where the
			// flow's standing queue physically sits: downstream links see
			// only the already-limited rate and keep (near-)empty queues,
			// so the fold must not charge standing occupancy there. The
			// choice is sticky: once a flow has a bottleneck, it keeps it
			// while that link's share stays within stickFrac of the
			// minimum. Without hysteresis, packet-load measurement noise
			// flaps the argmin between a path's near-equal links tick to
			// tick, smearing the standing charge over links whose real
			// queues would be empty (a real flow's queue stays planted at
			// one contention point).
			var at *Link
			for _, l := range f.Path {
				if l.unfrozen > 0 && l.share() <= min*(1+rateEps) {
					at = l
					break
				}
			}
			if at == nil {
				continue
			}
			if b := f.bneck; b != nil && b != at && b.unfrozen > 0 && b.share() <= min*(1+stickFrac) {
				for _, l := range f.Path {
					if l == b {
						at = b
						break
					}
				}
			}
			f.bneck = at
			at.bottleneck = true
			f.frozen = true
			f.rateBps = min
			remaining--
			progressed = true
			for _, l := range f.Path {
				l.avail -= min
				if l.avail < 0 {
					l.avail = 0
				}
				l.unfrozen--
				l.fluidBps += min
			}
		}
		if !progressed {
			break // float pathology guard; unreachable for sane inputs
		}
	}
}

// fold pushes each active link's allocation back into the packet world:
// the queue's fluid occupancy share and the transmitter's standing-queue
// delivery delay. Standing charges apply only where a fluid flow is both
// saturating the link and bottlenecked by it — a saturated link downstream
// of the bottleneck serves traffic at its arrival rate and keeps no queue.
func (e *Engine) fold() {
	for _, l := range e.active {
		saturated := l.bottleneck && l.fluidBps >= satFrac*l.availCap
		pkts := 0
		var standing eventq.Time
		if saturated {
			pkts = l.StandingPkts
			standing = l.StandingDelay
		}
		l.Share.SetPkts(pkts)
		if l.SetFold != nil {
			l.SetFold(standing)
		}
		l.folded = true
	}
}
