package netsim

import (
	"fmt"
	"testing"

	"dibs/internal/eventq"
)

// TestReplayAtFluidTickKeepsTickFirst pins the same-instant order of the
// fluid engine's first tick and the workload arrivals that land on it: the
// tick is queued while the network is built, so it runs first, then the
// arrivals in schedule order. The goldens were recorded when every flow
// half was still queued up front with pri 0, which gave that order by
// sequence number. The hybrid case pins the whole hybrid run; the order
// shows in the fluid-mode case, which admits the one-shot flows straight
// into the rate model, so a tick running after them would deliver bytes
// for time they were not yet admitted.
func TestReplayAtFluidTickKeepsTickFirst(t *testing.T) {
	for _, tc := range []struct {
		mode SimMode
		want string
	}{
		{ModeHybrid, "80.000ms|15875|125708346|14|0|0|400|8.467275|0.939533591|[9.894559e+08 9.894639e+08 9.894639e+08 9.894639e+08 9.899659e+08 9.882059e+08 9.894679e+08 9.894759e+08 9.902019e+08 9.882179e+08 9.905019e+08 9.882099e+08 9.932299e+08 9.932299e+08 1.6644e+07 9.5995e+08]|executed 134810"},
		{ModeFluid, "80.000ms|0|159320000|40|0|0|0|4.1|0.999878256|[9.9475e+08 9.9475e+08 9.9475e+08 9.9475e+08 9.9475e+08 9.9475e+08 9.9475e+08 9.9475e+08 9.9475e+08 9.9475e+08 9.9475e+08 9.9475e+08 9.9875e+08 9.9875e+08 9.5075e+08 9.9875e+08]|executed 880"},
	} {
		t.Run(string(tc.mode), func(t *testing.T) {
			cfg := fluidConfig(tc.mode)
			cfg.FluidTick = 100 * eventq.Microsecond
			cfg.FluidStableWindows = 3
			cfg.OneShot = &OneShot{At: cfg.FluidTick, Senders: 12, FlowsPerSender: 2, Bytes: 20_000}
			cfg.Duration = 30 * eventq.Millisecond
			cfg.Drain = 50 * eventq.Millisecond
			n := Build(cfg)
			r := n.Run()
			got := fmt.Sprintf("%s|executed %d", fluidFingerprint(r), n.Executed())
			if got != tc.want {
				t.Fatalf("run diverged from the recorded golden:\ngot  %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestReplayArrivalsPrecedeLaterTicks pins the other side of the order:
// a fluid tick scheduled during the run (pri 0, and queued before the
// replay reaches the arrival that shares its instant) runs after the
// arrivals of its instant, as it did when every flow half was queued up
// front. One flow arrives between two ticks, so the replay queues the
// next arrival, which lands exactly on a tick, only after that tick is
// already queued. The golden was recorded with every half queued up front.
func TestReplayArrivalsPrecedeLaterTicks(t *testing.T) {
	cfg := fluidConfig(ModeFluid)
	cfg.FluidTick = 100 * eventq.Microsecond
	onTick := 3 * cfg.FluidTick
	cfg.OneShot = &OneShot{At: onTick, Senders: 12, FlowsPerSender: 2, Bytes: 20_000}
	cfg.Duration = 30 * eventq.Millisecond
	cfg.Drain = 50 * eventq.Millisecond
	n := Build(cfg)
	s := recordSchedule(&n.Cfg, n.Topo.Hosts())
	between := len(s.flows) - 24 // the first one-shot flow
	if s.flows[between].at != onTick {
		t.Fatalf("flow %d starts at %v, want the one-shot instant %v", between, s.flows[between].at, onTick)
	}
	s.flows[between].at = onTick - cfg.FluidTick/2
	n.installSchedule(s)
	n.Sched.RunUntil(cfg.Duration + cfg.Drain)
	got := fmt.Sprintf("%s|executed %d", fluidFingerprint(n.results(cfg.Duration+cfg.Drain)), n.Executed())
	const want = "80.000ms|0|159320000|40|0|0|0|4|0.999878256|[9.9475e+08 9.9475e+08 9.9475e+08 9.9475e+08 9.9475e+08 9.9475e+08 9.9475e+08 9.9475e+08 9.9475e+08 9.9475e+08 9.9475e+08 9.9475e+08 9.9875e+08 9.9875e+08 9.5075e+08 9.9875e+08]|executed 880"
	if got != want {
		t.Fatalf("run diverged from the recorded golden:\ngot  %s\nwant %s", got, want)
	}
}

// TestReplayQueuesOneEventPerShard is the replay's memory bound: arming
// the recorded schedule queues exactly one event per shard, however many
// flows the schedule holds, so the event queue grows with the flows in
// flight rather than with the length of the run.
func TestReplayQueuesOneEventPerShard(t *testing.T) {
	for _, qps := range []float64{1600, 6400} {
		for _, shards := range []int{1, 2, 4} {
			cfg := shardConfigs()["fattree"]
			cfg.Query.QPS = qps
			cfg.Shards = shards
			n := Build(cfg)
			before := make([]int, len(n.shards))
			for i, sh := range n.shards {
				before[i] = sh.sched.Len()
			}
			s := recordSchedule(&n.Cfg, n.Topo.Hosts())
			if len(s.flows) < 100 {
				t.Fatalf("qps %v: schedule holds only %d flows; the bound is vacuous", qps, len(s.flows))
			}
			n.installSchedule(s)
			for i, sh := range n.shards {
				if got := sh.sched.Len() - before[i]; got != 1 {
					t.Errorf("qps %v, %d shards: shard %d queued %d events for %d flows, want 1",
						qps, shards, i, got, len(s.flows))
				}
			}
		}
	}
}

// TestReplayRunsTwoEventsPerFlow pins the replay's event count: each flow
// costs one event for its receiver and one for its sender, at its start
// time, and nothing else happens at that instant. The full run's total is
// the count recorded when both halves were still queued up front.
func TestReplayRunsTwoEventsPerFlow(t *testing.T) {
	cfg := smallConfig()
	at := eventq.Millisecond
	cfg.OneShot = &OneShot{At: at, Senders: 12, FlowsPerSender: 2, Bytes: 20_000}
	n := Build(cfg)
	s := recordSchedule(&n.Cfg, n.Topo.Hosts())
	n.installSchedule(s)
	n.Sched.RunUntil(at - 1)
	if got := n.Executed(); got != 0 {
		t.Fatalf("%d events ran before the first arrival", got)
	}
	n.Sched.RunUntil(at)
	if got, want := n.Executed(), uint64(2*len(s.flows)); got != want {
		t.Fatalf("arrival instant ran %d events for %d flows, want %d", got, len(s.flows), want)
	}

	sc := shardConfigs()["fattree"]
	for _, shards := range []int{1, 2} {
		sc.Shards = shards
		n := Build(sc)
		n.Run()
		if got, want := n.Executed(), uint64(196864); got != want {
			t.Errorf("%d shards: executed %d events, want %d", shards, got, want)
		}
	}
}
