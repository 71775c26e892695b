package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"time"

	"dibs"
	"dibs/internal/eventq"
	"dibs/internal/packet"
	"dibs/internal/queue"
	"dibs/internal/stats"
	"dibs/internal/switching"
)

// layer names a span kind the tracer times.
type layer uint8

const (
	layerSwitching layer = iota // Switch.Receive: FIB lookup, ECMP, DIBS detour choice
	layerQueue                  // queue.Queue Enqueue/Dequeue on switch ports
	layerHost                   // Host.Receive: transport OnData/OnAck plus NIC enqueue
	numLayers
)

var layerNames = [numLayers]string{"switching", "queue", "host"}

// layerStats aggregates one layer's spans. Every span is counted; only
// spans inside a timed top-level span (one in every timeEvery) read the
// clock, and their times are scaled by calls/timed when reported.
type layerStats struct {
	calls  uint64
	timed  uint64
	selfNs int64 // timed spans' time minus their timed children's
	inclNs int64 // timed spans' time including children
}

// frame is an open timed span.
type frame struct {
	layer     layer
	start     time.Duration
	childRaw  int64 // raw measured time of timed children
	children  int64 // timed children (trees are two deep: no grandchildren)
	id        uint64
	parent    uint64
	simTimeNs int64
}

// spanRec is one line of the sampled span log. Parent 0 means the span was
// caused directly by a scheduler event.
type spanRec struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Layer   string `json:"layer"`
	Sim     int    `json:"sim"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	SimNs   int64  `json:"sim_ns"`
}

const (
	// timeEvery times one top-level span in this many: a clock read costs
	// about a third of a switch receive, so timing every span would more
	// than double the traced run.
	timeEvery = 16
	// pendingEvery samples the scheduler's pending-event count at one
	// top-level span entry in this many.
	pendingEvery = timeEvery * 16
	// logEvery logs the whole span tree of one top-level span in this many.
	logEvery = timeEvery * 64
	// maxLog caps the span log kept in memory.
	maxLog = 200_000
)

// tracer times the layers of one or more traced simulations from outside
// the simulator: handler wrappers installed with OutPort.SetPeer and queue
// wrappers installed on OutPort.Q. The simulator is single-threaded and a
// Receive never calls another Receive (links have positive delay), so the
// spans form trees at most two deep: a queue call inside a switch receive.
type tracer struct {
	base time.Time
	// spanNs and childNs are the tracer's own cost inside a timed span and
	// per timed child; see calibrate.
	spanNs, childNs int64
	sched           *eventq.Scheduler
	sim             int

	depth   int
	tops    uint64
	timing  bool
	logging bool
	stack   []frame
	layers  [numLayers]layerStats

	enqueues  uint64
	refused   uint64
	depthHist []uint64     // switch queue length seen at each enqueue
	pending   stats.Sample // Sched.Len() at sampled top-level span entries
	dataBytes int64        // payload bytes of data packets delivered to hosts

	nextID uint64
	log    []spanRec
}

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	t.calibrate()
	return t
}

// calibrate measures what the tracer itself adds to a timed span: spanNs
// to an empty span, and childNs more to a span for each timed child it
// holds. Both come from timing empty spans through begin and end, so they
// include the clock reads and the bookkeeping either side of them.
func (t *tracer) calibrate() {
	t.sched = eventq.NewScheduler()
	const spans = 20_000 * timeEvery
	var leaf, withChild stats.Sample
	for rep := 0; rep < 9; rep++ {
		t.layers = [numLayers]layerStats{}
		for i := 0; i < spans; i++ {
			t.begin(layerSwitching)
			t.end()
		}
		leaf.Add(float64(t.layers[layerSwitching].selfNs) / float64(t.layers[layerSwitching].timed))
		t.layers = [numLayers]layerStats{}
		for i := 0; i < spans; i++ {
			t.begin(layerSwitching)
			t.begin(layerQueue)
			t.end()
			t.end()
		}
		withChild.Add(float64(t.layers[layerSwitching].selfNs) / float64(t.layers[layerSwitching].timed))
	}
	t.spanNs = int64(math.Round(leaf.Percentile(50)))
	t.childNs = int64(math.Round(withChild.Percentile(50))) - t.spanNs
	*t = tracer{base: t.base, spanNs: t.spanNs, childNs: t.childNs}
}

// install wraps every switch port's queue and re-points every link at a
// timing wrapper of its receiving node. It must run after dibs.Build, which
// wires the fluid share into the raw queues in hybrid mode.
func (t *tracer) install(n *dibs.Network) {
	t.sched = n.Sched
	wrapped := make([]switching.Handler, n.Topo.NumNodes())
	peer := func(id packet.NodeID) switching.Handler {
		if wrapped[id] == nil {
			if h := n.HostsByID[id]; h != nil {
				wrapped[id] = &spanHandler{t: t, layer: layerHost, h: h}
			} else {
				wrapped[id] = &spanHandler{t: t, layer: layerSwitching, h: n.Switches[id]}
			}
		}
		return wrapped[id]
	}
	for _, sid := range n.Topo.Switches() {
		for pi, op := range n.Switches[sid].Ports() {
			op.Q = &spanQueue{t: t, q: op.Q}
			p := n.Topo.Ports(sid)[pi]
			op.SetPeer(peer(p.Peer), p.PeerPort)
		}
	}
	for _, hid := range n.Topo.Hosts() {
		p := n.Topo.Ports(hid)[0]
		n.HostsByID[hid].NIC.SetPeer(peer(p.Peer), p.PeerPort)
	}
}

func (t *tracer) begin(l layer) {
	t.layers[l].calls++
	if t.depth == 0 {
		t.tops++
		t.timing = t.tops%timeEvery == 0
		t.logging = t.tops%logEvery == 0 && len(t.log) < maxLog
		if t.tops%pendingEvery == 0 {
			t.pending.Add(float64(t.sched.Len()))
		}
	}
	t.depth++
	if !t.timing {
		return
	}
	f := frame{layer: l}
	if t.logging {
		t.nextID++
		f.id = t.nextID
		f.simTimeNs = int64(t.sched.Now())
		if n := len(t.stack); n > 0 {
			f.parent = t.stack[n-1].id
		}
	}
	f.start = time.Since(t.base)
	t.stack = append(t.stack, f)
}

func (t *tracer) end() {
	t.depth--
	if !t.timing {
		return
	}
	now := time.Since(t.base)
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	raw := int64(now - f.start)
	ls := &t.layers[f.layer]
	ls.timed++
	ls.selfNs += raw - f.childRaw - t.spanNs - t.childNs*f.children
	ls.inclNs += raw - t.spanNs - (t.spanNs+t.childNs)*f.children
	if n := len(t.stack); n > 0 {
		p := &t.stack[n-1]
		p.childRaw += raw
		p.children++
	}
	if t.logging {
		t.log = append(t.log, spanRec{ID: f.id, Parent: f.parent, Layer: layerNames[f.layer], Sim: t.sim,
			StartNs: int64(f.start), DurNs: raw, SimNs: f.simTimeNs})
	}
}

// selfSeconds estimates a layer's total self time from its timed sample.
func (t *tracer) selfSeconds(l layer) float64 {
	ls := t.layers[l]
	if ls.timed == 0 {
		return 0
	}
	return float64(ls.selfNs) / 1e9 * float64(ls.calls) / float64(ls.timed)
}

// nsPerCall is a layer's mean inclusive span time in nanoseconds.
func (t *tracer) nsPerCall(l layer) float64 {
	ls := t.layers[l]
	if ls.timed == 0 {
		return 0
	}
	return float64(ls.inclNs) / float64(ls.timed)
}

func (t *tracer) depthP99() float64 {
	var total uint64
	for _, c := range t.depthHist {
		total += c
	}
	var seen uint64
	for d, c := range t.depthHist {
		seen += c
		if seen*100 >= total*99 {
			return float64(d)
		}
	}
	return 0
}

func (t *tracer) pendingP99() float64 {
	if t.pending.N() == 0 {
		return 0
	}
	return t.pending.Percentile(99)
}

// writeLog writes the sampled span log as JSON Lines.
func (t *tracer) writeLog(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.log {
		if err := enc.Encode(&t.log[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanHandler times a node's Receive.
type spanHandler struct {
	t     *tracer
	layer layer
	h     switching.Handler
}

func (s *spanHandler) Receive(p *packet.Packet, port int) {
	if s.layer == layerHost && p.Kind == packet.Data {
		s.t.dataBytes += int64(p.PayloadBytes)
	}
	s.t.begin(s.layer)
	s.h.Receive(p, port)
	s.t.end()
}

// spanQueue times a switch port's queue. It forwards every method the
// simulator uses, including Capacity, which Switch.QueueCap type-asserts.
type spanQueue struct {
	t *tracer
	q queue.Queue
}

func (w *spanQueue) Enqueue(p *packet.Packet) queue.Result {
	t := w.t
	if d := w.q.Len(); d < len(t.depthHist) {
		t.depthHist[d]++
	} else {
		t.depthHist = append(t.depthHist, make([]uint64, d+1-len(t.depthHist))...)
		t.depthHist[d]++
	}
	t.begin(layerQueue)
	r := w.q.Enqueue(p)
	t.end()
	t.enqueues++
	if !r.Accepted {
		t.refused++
	}
	return r
}

func (w *spanQueue) Dequeue() *packet.Packet {
	w.t.begin(layerQueue)
	p := w.q.Dequeue()
	w.t.end()
	return p
}

func (w *spanQueue) Len() int   { return w.q.Len() }
func (w *spanQueue) Full() bool { return w.q.Full() }
func (w *spanQueue) Bytes() int { return w.q.Bytes() }

// Capacity reports the wrapped queue's capacity, or 0 when it has none,
// exactly as Switch.QueueCap would for the unwrapped queue.
func (w *spanQueue) Capacity() int {
	if c, ok := w.q.(interface{ Capacity() int }); ok {
		return c.Capacity()
	}
	return 0
}
