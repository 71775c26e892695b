// Command perfbench is the repository's benchmark. It runs the traffic of
// the paper's simulations (§5.4, Figs. 8, 9 and 14: DCTCP web-search
// background flows plus partition-aggregate incast on a fat-tree) through
// the simulator's public entry points, one simulation at a time on the
// sequential engine, checks every simulation's outputs, and prints either
// the end-to-end metrics (--trace 0) or the per-layer metrics of a traced
// run (--trace 1). README.md lists the workloads and every metric.
//
// Usage, from the repository root (run.sh builds this program first):
//
//	bash perfbench/run.sh --workload websearch_k8 --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20
//
// "all" runs every workload untraced and traced and adds the K-scaling
// line. The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"dibs"
	"dibs/internal/stats"
	"dibs/internal/switching"
	"dibs/internal/topology"
)

// workload is one traffic mix. Every simulation of a run uses it with a
// seed derived from --seed.
type workload struct {
	name           string
	k              int
	bgInterarrival dibs.Time
	qps            float64
	traffic, drain dibs.Time
	mode           dibs.SimMode
	// simSeconds and tracedSeconds are the nominal wall times, on a 2-core
	// x86-64 box, of one simulation untraced and of the traced run's work
	// per seed (untraced, traced and, for hybrid, the packet-mode
	// counterpart). They turn --seconds into a fixed batch size, so the
	// work a run measures depends on --seed and --seconds alone.
	simSeconds, tracedSeconds float64
}

const ms = dibs.Millisecond

// workloads are the ones BENCHMARK.json declares. The drains let every flow
// finish (checked on seeds 1-10), which the output check requires.
var workloads = []workload{
	{name: "websearch_k8", k: 8, bgInterarrival: 20 * ms, qps: 300, traffic: 500 * ms, drain: 200 * ms,
		simSeconds: 2.8, tracedSeconds: 6},
	{name: "incast_k8", k: 8, bgInterarrival: 120 * ms, qps: 2000, traffic: 500 * ms, drain: 200 * ms,
		simSeconds: 5, tracedSeconds: 10},
	{name: "hybrid_k8", k: 8, bgInterarrival: 20 * ms, qps: 300, traffic: 500 * ms, drain: 200 * ms,
		mode: dibs.ModeHybrid, simSeconds: 2.3, tracedSeconds: 7},
}

// websearchK16 is websearch_k8's per-host load on a K=16 fat-tree. It runs
// by name and under "all", which prints the K-scaling line from it, but
// BENCHMARK.json does not declare it: its working set outgrows the
// per-core caches, so its timings drift with other tenants' load by more
// than the 0.25 bound allows (README.md, Noise).
var websearchK16 = workload{name: "websearch_k16", k: 16, bgInterarrival: 20 * ms, qps: 300,
	traffic: 100 * ms, drain: 300 * ms, simSeconds: 6.5, tracedSeconds: 12.5}

// config is the paper's default setup (DCTCP, DIBS with the random policy,
// 100-packet buffers marking at 20, 40 x 20 KB queries) with the
// workload's fabric size, load and length.
func (w workload) config(seed int64) dibs.Config {
	cfg := dibs.DefaultConfig()
	cfg.FatTreeK = w.k
	cfg.BGInterarrival = w.bgInterarrival
	cfg.Query.QPS = w.qps
	cfg.Duration = w.traffic
	cfg.Drain = w.drain
	cfg.Mode = w.mode
	cfg.Seed = seed
	return cfg
}

// batch is the number of simulations a run of the given length makes.
func (w workload) batch(seconds float64, traced bool) int {
	cost := w.simSeconds
	if traced {
		cost = w.tracedSeconds
	}
	return max(1, int(math.Round(seconds/cost)))
}

// subSeed is the simulator seed of simulation i of a run.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// buildsPerSim is how many times a run builds each simulation's network to
// time set-up. The builds sit between the simulations, so set-up is sampled
// across the whole run rather than in one burst at its start.
const buildsPerSim = 7

// spanDir receives the traced runs' span logs, relative to the directory
// the benchmark runs in.
const spanDir = ".bench_build/spans"

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"events_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb", "MiB"},
	{"allocs_per_pkt", "1/pkt"},
}

var perLayer = []metricDef{
	{"netsim.assembly_s", "s"},
	{"topology.build_s", "s"},
	{"topology.nexthops_ns", "ns"},
	{"eventq.events", "count"},
	{"eventq.ns_per_event", "ns"},
	{"eventq.pending_p99", "count"},
	{"eventq.residual_s", "s"},
	{"switching.receives", "count"},
	{"switching.self_s", "s"},
	{"switching.ns_per_receive", "ns"},
	{"queue.enqueues", "count"},
	{"queue.refused", "count"},
	{"queue.self_s", "s"},
	{"queue.depth_p99", "pkts"},
	{"core.detours", "count"},
	{"core.detour_ratio", "ratio"},
	{"core.drops_no_detour", "count"},
	{"core.drops_ttl", "count"},
	{"host.receives", "count"},
	{"host.self_s", "s"},
	{"host.ns_per_receive", "ns"},
	{"transport.timeouts", "count"},
	{"transport.retransmits", "count"},
	{"transport.retx_ratio", "ratio"},
	{"packet.borrowed", "count"},
	{"packet.live_end", "count"},
	{"fluid.demotions", "count"},
	{"fluid.promotions", "count"},
	{"fluid.byte_share", "ratio"},
	{"fluid.events_saved", "ratio"},
	{"fluid.qct99_err", "ratio"},
	{"fluid.short_fct99_err", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_s", "s"},
}

// outcome is what one run measured and how many simulations it checked.
type outcome struct {
	values            map[string]float64
	attempted, failed int
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all for every workload with both runs")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "measured seconds per run; sizes the batch of simulations")
		traced  = flag.Int("trace", 0, "0 prints end-to-end metrics, 1 runs the traced measurement and prints per-layer metrics")
	)
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	refs, err := loadReferences()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	fmt.Printf("perfbench %s seed %d, %s %s/%s, GOMAXPROCS %d\n",
		*name, *seed, runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0))

	if *name == "all" {
		report(*seed, *seconds, refs)
		return
	}
	var w *workload
	for _, c := range append(workloads, websearchK16) {
		if c.name == *name {
			w = &c
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *traced == 1 {
		emit(perLayer, runTraced(*w, *seed, *seconds, refs))
	} else {
		emit(endToEnd, runPlain(*w, *seed, *seconds, refs))
	}
}

// report runs every workload untraced and traced, then prints the
// K-scaling line the ROADMAP gates on.
func report(seed int64, seconds float64, refs references) {
	total := outcome{values: map[string]float64{}}
	var defs []metricDef
	for _, w := range append(workloads, websearchK16) {
		fmt.Printf("== %s\n", w.name)
		for _, run := range []struct {
			defs []metricDef
			o    outcome
		}{
			{endToEnd, runPlain(w, seed, seconds, refs)},
			{perLayer, runTraced(w, seed, seconds, refs)},
		} {
			printMetrics(run.defs, run.o)
			for _, d := range run.defs {
				defs = append(defs, metricDef{w.name + "." + d.name, d.unit})
				total.values[w.name+"."+d.name] = run.o.values[d.name]
			}
			total.attempted += run.o.attempted
			total.failed += run.o.failed
		}
	}
	v := total.values
	evRatio := v["websearch_k8.events_per_s"] / v["websearch_k16.events_per_s"]
	nsRatio := v["websearch_k16.switching.ns_per_receive"] / v["websearch_k8.switching.ns_per_receive"]
	fmt.Printf("k-scaling: events_per_s K=8/K=16 %.3f (ROADMAP gate <= 1.5)   switching.ns_per_receive K=16/K=8 %.3f\n",
		evRatio, nsRatio)
	defs = append(defs, metricDef{"k_scaling.events_per_s_k8_over_k16", "ratio"},
		metricDef{"k_scaling.ns_per_receive_k16_over_k8", "ratio"})
	v["k_scaling.events_per_s_k8_over_k16"] = evRatio
	v["k_scaling.ns_per_receive_k16_over_k8"] = nsRatio
	emit(defs, total)
}

// sim is one simulation's measurements and check result.
type sim struct {
	res        *dibs.Results // Collector dropped after the check
	fp         string
	bad        []string
	runS, cpuS float64
	events     uint64
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

// simulate builds and runs cfg, timing Network.Run, and checks the outputs
// against want (a recorded fingerprint, or ""). A non-nil tracer is
// installed on the built network before the run.
func simulate(cfg dibs.Config, tr *tracer, want string) sim {
	runtime.GC()
	n := dibs.Build(cfg)
	if tr != nil {
		tr.install(n)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	res := n.Run()
	runS := time.Since(t0).Seconds()
	cpuS := cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)

	s := sim{
		res: res, fp: fingerprint(res), runS: runS, cpuS: cpuS,
		events:     n.Sched.Executed(),
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		mallocs:    m1.Mallocs - m0.Mallocs,
		gcCycles:   m1.NumGC - m0.NumGC,
		gcPauseNs:  m1.PauseTotalNs - m0.PauseTotalNs,
	}
	s.bad = checkResults(res, s.fp, want)
	res.Collector = nil
	return s
}

// tally prints one simulation's line and counts it in o.
func tally(o *outcome, label string, seed int64, s sim) {
	status := "ok"
	if len(s.bad) > 0 {
		status = "FAILED"
		o.failed++
		for _, b := range s.bad {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %s\n", label, seed, b)
		}
	}
	o.attempted++
	fmt.Printf("%-14s seed %-6d run %.3f s  cpu %.3f s  %d events  fingerprint %s  %s\n",
		label, seed, s.runS, s.cpuS, s.events, s.fp, status)
}

// runPlain measures the end-to-end metrics over a batch of untraced
// simulations, each preceded by buildsPerSim timed builds of its network.
// The timings are medians over the batch, so one slow spell on the host
// moves a run's figures less than it would move a batch mean.
func runPlain(w workload, seed int64, seconds float64, refs references) outcome {
	o := outcome{values: map[string]float64{}}
	var runS, cpuS, rate, builds stats.Sample
	var allocBytes, mallocs, borrowed float64
	n := w.batch(seconds, false)
	for i := 0; i < n; i++ {
		cfg := w.config(subSeed(seed, i))
		timeSetup(cfg, &builds, nil)
		s := simulate(cfg, nil, refs.expected(w.name, seed, i))
		tally(&o, w.name, cfg.Seed, s)
		runS.Add(s.runS)
		cpuS.Add(s.cpuS)
		rate.Add(float64(s.events) / s.runS)
		allocBytes += float64(s.allocBytes)
		mallocs += float64(s.mallocs)
		borrowed += float64(s.res.PoolBorrowed)
	}
	sims := float64(n)
	o.values["run_s"] = runS.Percentile(50)
	o.values["cpu_s"] = cpuS.Percentile(50)
	o.values["events_per_s"] = rate.Percentile(50)
	o.values["setup_s"] = builds.Percentile(50)
	o.values["peak_rss_mb"] = peakRSSMiB()
	o.values["alloc_mb"] = allocBytes / sims / (1 << 20)
	o.values["allocs_per_pkt"] = mallocs / borrowed
	return o
}

// runTraced measures the per-layer metrics. For each seed of its batch it
// runs the simulation untraced, then traced, and requires both to produce
// the same fingerprint; hybrid workloads also run their packet-mode
// counterpart to measure what the fluid model saves and what it costs in
// fidelity.
func runTraced(w workload, seed int64, seconds float64, refs references) outcome {
	o := outcome{values: map[string]float64{}}
	cfg0 := w.config(subSeed(seed, 0))
	var builds, topos stats.Sample
	tr := newTracer()

	var (
		runU, runT, events, refEvents          float64
		detours, noDetour, ttl, timeouts, retx float64
		delivered, borrowed, live              float64
		demotions, promotions, fluidBytes      float64
		qctErr, fctErr, gcCycles, gcPauseNs    float64
	)
	n := w.batch(seconds, true)
	for i := 0; i < n; i++ {
		cfg := w.config(subSeed(seed, i))
		timeSetup(cfg, &builds, &topos)
		u := simulate(cfg, nil, refs.expected(w.name, seed, i))
		tally(&o, w.name, cfg.Seed, u)
		tr.sim = i
		t := simulate(cfg, tr, u.fp)
		tally(&o, w.name+"/traced", cfg.Seed, t)
		runU += u.runS
		runT += t.runS
		events += float64(u.events)
		r := u.res
		detours += float64(r.Detours)
		noDetour += float64(r.Drops[switching.DropNoDetour])
		ttl += float64(r.Drops[switching.DropTTL])
		timeouts += float64(r.Timeouts)
		retx += float64(r.Retransmits)
		delivered += float64(r.DeliveredData)
		borrowed += float64(r.PoolBorrowed)
		live += float64(r.PoolLive)
		demotions += float64(r.FluidDemotions)
		promotions += float64(r.FluidPromotions)
		fluidBytes += float64(r.FluidBytes)
		gcCycles += float64(u.gcCycles)
		gcPauseNs += float64(u.gcPauseNs)
		if w.mode == dibs.ModeHybrid {
			pcfg := cfg
			pcfg.Mode = dibs.ModePacket
			// The packet-mode counterpart is websearch_k8's simulation.
			p := simulate(pcfg, nil, refs.expected("websearch_k8", seed, i))
			tally(&o, w.name+"/packet", cfg.Seed, p)
			refEvents += float64(p.events)
			qctErr += math.Abs(r.QCT99-p.res.QCT99) / p.res.QCT99
			fctErr += math.Abs(r.ShortFCT99-p.res.ShortFCT99) / p.res.ShortFCT99
		}
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.writeLog(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing span log:", err)
	} else {
		fmt.Printf("span log: %s (%d spans)\n", path, len(tr.log))
	}

	sims := float64(n)
	var selfS float64
	for l := layer(0); l < numLayers; l++ {
		selfS += tr.selfSeconds(l)
	}
	receives := float64(tr.layers[layerSwitching].calls)
	v := o.values
	v["netsim.assembly_s"] = builds.Percentile(50) - topos.Percentile(50)
	v["topology.build_s"] = topos.Percentile(50)
	v["topology.nexthops_ns"] = timeNextHops(cfg0)
	v["eventq.events"] = events / sims
	v["eventq.ns_per_event"] = runU * 1e9 / events
	v["eventq.pending_p99"] = tr.pendingP99()
	v["eventq.residual_s"] = (runU - selfS) / sims
	v["switching.receives"] = receives / sims
	v["switching.self_s"] = tr.selfSeconds(layerSwitching) / sims
	v["switching.ns_per_receive"] = tr.nsPerCall(layerSwitching)
	v["queue.enqueues"] = float64(tr.enqueues) / sims
	v["queue.refused"] = float64(tr.refused) / sims
	v["queue.self_s"] = tr.selfSeconds(layerQueue) / sims
	v["queue.depth_p99"] = tr.depthP99()
	v["core.detours"] = detours / sims
	v["core.detour_ratio"] = detours / receives
	v["core.drops_no_detour"] = noDetour / sims
	v["core.drops_ttl"] = ttl / sims
	v["host.receives"] = float64(tr.layers[layerHost].calls) / sims
	v["host.self_s"] = tr.selfSeconds(layerHost) / sims
	v["host.ns_per_receive"] = tr.nsPerCall(layerHost)
	v["transport.timeouts"] = timeouts / sims
	v["transport.retransmits"] = retx / sims
	v["transport.retx_ratio"] = retx / delivered
	v["packet.borrowed"] = borrowed / sims
	v["packet.live_end"] = live / sims
	v["fluid.demotions"] = demotions / sims
	v["fluid.promotions"] = promotions / sims
	v["fluid.byte_share"] = fluidBytes / (fluidBytes + float64(tr.dataBytes))
	v["fluid.events_saved"] = 0
	if refEvents > 0 {
		v["fluid.events_saved"] = 1 - events/refEvents
	}
	v["fluid.qct99_err"] = qctErr / sims
	v["fluid.short_fct99_err"] = fctErr / sims
	v["runtime.gc_cycles"] = gcCycles / sims
	v["runtime.gc_pause_ms"] = gcPauseNs / sims / 1e6
	v["trace.overhead_s"] = (runT - runU) / sims
	return o
}

// timeSetup times dibs.Build of cfg buildsPerSim times into builds and,
// when topos is not nil, topology.FatTree at the same size between the
// builds into topos.
func timeSetup(cfg dibs.Config, builds, topos *stats.Sample) {
	spec := topology.LinkSpec{RateBps: cfg.LinkRate, Delay: cfg.LinkDelay}
	for i := 0; i < buildsPerSim; i++ {
		runtime.GC()
		t0 := time.Now()
		n := dibs.Build(cfg)
		builds.Add(time.Since(t0).Seconds())
		runtime.KeepAlive(n)
		if topos != nil {
			runtime.GC()
			t0 = time.Now()
			topo := topology.FatTree(cfg.FatTreeK, spec, cfg.Oversub)
			topos.Add(time.Since(t0).Seconds())
			runtime.KeepAlive(topo)
		}
	}
}

var nextHopsSink int

// timeNextHops returns the median, over several passes, of the mean cost
// of one NextHops lookup over every switch x host pair.
func timeNextHops(cfg dibs.Config) float64 {
	topo := topology.FatTree(cfg.FatTreeK, topology.LinkSpec{RateBps: cfg.LinkRate, Delay: cfg.LinkDelay}, cfg.Oversub)
	sws, hosts := topo.Switches(), topo.Hosts()
	passes := max(1, 2_000_000/(len(sws)*len(hosts)))
	var per stats.Sample
	for rep := 0; rep < 7; rep++ {
		t0 := time.Now()
		for p := 0; p < passes; p++ {
			for _, s := range sws {
				for _, h := range hosts {
					nextHopsSink += len(topo.NextHops(s, h))
				}
			}
		}
		per.Add(float64(time.Since(t0).Nanoseconds()) / float64(passes*len(sws)*len(hosts)))
	}
	return per.Percentile(50)
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMiB is the process's peak resident set size (Linux reports KiB).
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

func printMetrics(defs []metricDef, o outcome) {
	for _, d := range defs {
		fmt.Printf("%-40s %16.6g %s\n", d.name, o.values[d.name], d.unit)
	}
	fmt.Printf("%-40s %16.6g %s  (%d of %d simulations)\n", "failed_runs",
		float64(o.failed)/float64(o.attempted), "ratio", o.failed, o.attempted)
}

// emit prints the metrics and, as the last line, the JSON result.
func emit(defs []metricDef, o outcome) {
	printMetrics(defs, o)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.name] = value{o.values[d.name], d.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
