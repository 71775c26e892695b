package main

import (
	"encoding/json"
	"os"
	"testing"

	"dibs"
	"dibs/internal/switching"
)

// shortConfig is a K=4 run of the benchmark's traffic mix that takes well
// under a second.
func shortConfig(mode dibs.SimMode) dibs.Config {
	w := workloads[0]
	w.k = 4
	w.traffic = 30 * ms
	w.mode = mode
	cfg := w.config(7)
	cfg.Query.Degree = 8
	return cfg
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, mode := range []dibs.SimMode{dibs.ModePacket, dibs.ModeHybrid} {
		cfg := shortConfig(mode)
		plain := simulate(cfg, nil, "")
		if len(plain.bad) > 0 {
			t.Fatalf("%s: untraced run failed its check: %v", mode, plain.bad)
		}
		if mode == dibs.ModeHybrid && plain.res.FluidDemotions == 0 {
			t.Fatal("the short hybrid run never hands a flow to the fluid model")
		}
		tr := newTracer()
		traced := simulate(cfg, tr, plain.fp)
		if len(traced.bad) > 0 {
			t.Fatalf("%s: traced run differs from untraced: %v", mode, traced.bad)
		}
		if tr.layers[layerSwitching].calls == 0 || tr.layers[layerHost].calls == 0 || tr.enqueues == 0 {
			t.Fatalf("%s: tracer saw no spans: %+v", mode, tr.layers)
		}
	}
}

func TestPerturbedFingerprintFailsTheRun(t *testing.T) {
	cfg := shortConfig(dibs.ModePacket)
	fp := simulate(cfg, nil, "").fp
	perturbed := []byte(fp)
	perturbed[0] ^= 1
	s := simulate(cfg, nil, string(perturbed))
	var o outcome
	tally(&o, "perturbed", cfg.Seed, s)
	if o.failed != 1 || o.attempted != 1 {
		t.Fatalf("a perturbed fingerprint gave %d failed of %d; want 1 of 1", o.failed, o.attempted)
	}
}

func TestQueueWrapperKeepsCapacity(t *testing.T) {
	cfg := shortConfig(dibs.ModePacket)
	n := dibs.Build(cfg)
	sw := n.Switches[n.Topo.Switches()[0]].(*switching.Switch)
	newTracer().install(n)
	if _, ok := sw.Ports()[0].Q.(*spanQueue); !ok {
		t.Fatal("install did not wrap the switch queues")
	}
	if got := sw.QueueCap(0); got != cfg.BufferPkts {
		t.Fatalf("QueueCap through the wrapper = %d, want %d", got, cfg.BufferPkts)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the names and units this
// program prints in step with the ones BENCHMARK.json declares.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program %v, BENCHMARK.json %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: program %s, BENCHMARK.json %s", i, w.name, spec.Workloads[i].Name)
		}
	}
}
