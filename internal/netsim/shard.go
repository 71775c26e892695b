package netsim

import (
	"fmt"

	"dibs/internal/eventq"
	"dibs/internal/metrics"
	"dibs/internal/packet"
	"dibs/internal/pdes"
	"dibs/internal/trace"
	"dibs/internal/transport"
)

// shardCtx is one scheduler shard of the network: its own event queue,
// packet arena, and metrics collector, plus the outbox of cross-shard
// packets it emitted during the current window. With Shards <= 1 the whole
// network is one shardCtx and the run is the plain sequential engine — the
// sharded configuration differs only in how many of these exist and in
// which links hand off through the outbox instead of scheduling locally.
//
//dibslint:confined shard owned by its worker during windows and by the coordinator between them; never aliased across shards
type shardCtx struct {
	id    int
	sched *eventq.Scheduler
	pool  *packet.Pool
	coll  *metrics.Collector

	// outbox collects the shard's cross-shard emissions of the current
	// window; the coordinator drains it at each barrier. Only this shard's
	// worker appends (during windows) and only the coordinator reads
	// (between windows), with the barrier channels ordering the two.
	//
	//dibslint:confined shard appended by the owning worker, drained by the coordinator; the barrier orders the two
	outbox []pdes.Message
	// emitted counts packets returned to this shard's arena because they
	// left for another shard; adopted counts packets borrowed from this
	// arena to re-materialize an arriving snapshot. The pair lets the
	// results layer cancel the hand-off borrows out of the pool totals,
	// keeping PoolBorrowed/PoolReturned byte-identical to a 1-shard run.
	emitted uint64
	adopted uint64

	// senders/longRx retain this shard's transport endpoints for
	// end-of-run stats aggregation (sums and Flow-sorted merges).
	senders []*transport.Sender
	longRx  []*transport.Receiver
}

// makeEmit builds the cross-shard hand-off for one directed link whose
// transmitter lives in src and receiver (node peer, port peerPort) in dst.
// The OutPort has already freed the packet into src's arena; the message
// wraps the snapshot and, on delivery, borrows from dst's arena, restores
// the snapshot, and hands it to the receiving node exactly as a local
// delivery event would.
//
//dibslint:confined shard the emitter runs on src's worker and the Message closure on dst's; the outbox append stays inside the custody protocol
func (n *Network) makeEmit(src, dst *shardCtx, peer packet.NodeID, peerPort int) func(at eventq.Time, pri int64, w packet.Wire) {
	return func(at eventq.Time, pri int64, w packet.Wire) {
		src.emitted++
		src.outbox = append(src.outbox, pdes.Message{
			At: at, Pri: pri, Seq: src.emitted, Dst: dst.id,
			Deliver: func() {
				dst.adopted++
				p := dst.pool.Get()
				w.Restore(p)
				n.handlers[peer].Receive(p, peerPort)
			},
		})
	}
}

// lookahead returns the conservative window width: the minimum propagation
// delay over links that cross a shard boundary. Any packet emitted during a
// window arrives at least that far in the future, so shards can run a full
// window without hearing from each other.
func (n *Network) lookahead() eventq.Time {
	var la eventq.Time
	for _, sid := range n.Topo.Switches() {
		for _, p := range n.Topo.Ports(sid) {
			if n.part[sid] != n.part[p.Peer] && (la == 0 || p.Delay < la) {
				la = p.Delay
			}
		}
	}
	if la == 0 {
		la = n.Cfg.LinkDelay
	}
	return la
}

// runSharded drives all shards to end under the conservative window
// protocol.
//
//dibslint:confined coordinator runs between windows only; every shard is quiescent whenever its closures touch shard state
func (n *Network) runSharded(end eventq.Time) {
	pdes.Run(len(n.shards), n.lookahead(), end,
		func(i int, limit eventq.Time) { n.shards[i].sched.RunUntil(limit) },
		func(i int) []pdes.Message {
			sh := n.shards[i]
			out := sh.outbox
			sh.outbox = nil
			return out
		},
		func(m pdes.Message) {
			n.shards[m.Dst].sched.AtPri(m.At, m.Pri, m.Deliver)
		})
}

// Executed sums executed events over all shards.
func (n *Network) Executed() uint64 {
	var total uint64
	for _, sh := range n.shards {
		total += sh.sched.Executed()
	}
	return total
}

// installSchedule pre-registers the recorded workload with every shard's
// collector and arms one replay cursor per shard. Flow and query tables go
// to every collector eagerly: a packet may be dropped or detoured in any
// shard along its path, and class attribution must work wherever the hook
// fires. Completion state stays exclusive — only the destination shard's
// collector ever marks a flow done — so the merge cannot double-count.
//
// Endpoint creation is lazy: each shard holds exactly one pending replay
// event (see replayCursor), so the event queue grows with the flows in
// flight, not with the length of the schedule.
func (n *Network) installSchedule(s *flowSchedule) {
	for i := range s.flows {
		f := &s.flows[i]
		if f.src == f.dst {
			panic("netsim: flow to self")
		}
		if n.HostsByID[f.src] == nil || n.HostsByID[f.dst] == nil {
			panic(fmt.Sprintf("netsim: flow endpoints %d->%d are not hosts", f.src, f.dst))
		}
	}
	tc := n.transportConfig()
	for _, sh := range n.shards {
		for _, q := range s.queries {
			sh.coll.QueryStartedAt(q.id, q.nFlows, q.at)
		}
		sh.coll.ReserveFlows(len(s.flows))
		for _, f := range s.flows {
			sh.coll.FlowStartedAt(f.id, f.class, f.bytes, f.queryID, f.at)
		}
		c := &replayCursor{n: n, sh: sh, flows: s.flows, tc: tc}
		c.fire = c.step
		c.next()
	}
}

// replayCursor replays the recorded schedule on one shard. It walks the
// flows in schedule order and stops at each flow half its shard owns: the
// receiver half when the flow's destination lives there, the sender half
// when its source does. Each half is one event at the flow's start time
// carrying eventq.PriFirst, so an arrival runs ahead of every packet,
// timer and delivery event of its instant. Because the cursor schedules
// half k+1 only when half k fires, halves of one instant still run in
// schedule order (receiver before sender, flow by flow), and the shard's
// event count is the same as if every half had been queued up front.
type replayCursor struct {
	n     *Network
	sh    *shardCtx
	flows []flowStart
	tc    transport.Config
	// i is the next flow to visit; sender reports whether its receiver
	// half is already behind the cursor.
	i      int
	sender bool
	// rcv hands the receiver of flow i, when this shard created it, to
	// the flow's sender half. Fluid modes need it and run on one shard,
	// where the sender half is always the very next replay event.
	rcv *transport.Receiver
	// fire is step bound once, so re-arming the cursor allocates nothing.
	fire func()
}

// next advances to the next half this shard owns and schedules it; past
// the last flow the cursor stops scheduling.
func (c *replayCursor) next() {
	for ; c.i < len(c.flows); c.i, c.sender, c.rcv = c.i+1, false, nil {
		f := &c.flows[c.i]
		if !c.sender && c.n.part[f.dst] == c.sh.id {
			c.sh.sched.AtPri(f.at, eventq.PriFirst, c.fire)
			return
		}
		if c.n.part[f.src] == c.sh.id {
			c.sender = true
			c.sh.sched.AtPri(f.at, eventq.PriFirst, c.fire)
			return
		}
	}
}

// step runs the half the cursor stands on and schedules the next one.
func (c *replayCursor) step() {
	f := &c.flows[c.i]
	if c.sender {
		c.n.startSender(c.sh, f, c.tc, c.rcv)
		c.i, c.sender, c.rcv = c.i+1, false, nil
	} else {
		c.rcv = c.n.startReceiver(c.sh, f, c.tc)
		c.sender = true
	}
	c.next()
}

// startReceiver creates flow f's receiver on its destination host, which
// lives in shard ds.
func (n *Network) startReceiver(ds *shardCtx, f *flowStart, tc transport.Config) *transport.Receiver {
	dstHost := n.HostsByID[f.dst]
	rcv := transport.NewReceiver(transport.Env{Sched: ds.sched, Pool: ds.pool, Emit: dstHost.SendFn()},
		tc, f.id, f.dst, f.bytes)
	rcv.OnComplete = func() {
		ds.coll.FlowDone(f.id)
		dstHost.RemoveReceiver(f.id)
		if n.Trace != nil {
			n.Trace.Record(trace.Event{
				T: ds.sched.Now(), Kind: trace.KindFlowDone, Node: f.dst,
				Flow: f.id, Seq: -1,
			})
		}
	}
	dstHost.AddReceiver(rcv)
	if f.class == metrics.ClassLong {
		ds.longRx = append(ds.longRx, rcv)
	}
	return rcv
}

// startSender creates flow f's sender on its source host, which lives in
// shard ss, and starts it — or, in fluid modes, offers it together with
// its receiver rcv to the rate model first.
func (n *Network) startSender(ss *shardCtx, f *flowStart, tc transport.Config, rcv *transport.Receiver) {
	srcHost := n.HostsByID[f.src]
	snd := transport.NewSender(transport.Env{Sched: ss.sched, Pool: ss.pool, Emit: srcHost.SendFn()},
		tc, f.id, f.src, f.dst, f.bytes)
	snd.OnComplete = func() { srcHost.RemoveSender(f.id) }
	srcHost.AddSender(snd)
	ss.senders = append(ss.senders, snd)
	if n.Trace != nil {
		n.Trace.Record(trace.Event{
			T: ss.sched.Now(), Kind: trace.KindFlowStart, Node: f.src,
			Flow: f.id, Seq: -1, Detail: fmt.Sprintf("%s %dB -> %d", f.class, f.bytes, f.dst),
		})
	}
	if n.fluid != nil && n.fluid.registerFlow(snd, rcv) {
		return
	}
	snd.Start()
}
