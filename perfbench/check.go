package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"

	"dibs"
	"dibs/internal/metrics"
)

// fingerprint hashes the simulated outcome of a run: queries, completion
// time percentiles, drops by reason, detours, transport recovery and the
// fluid hand-offs. Event and packet-pool counts are left out, so a change
// that removes events or packets without changing the outcome still
// matches.
func fingerprint(r *dibs.Results) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "queries %d %d qct %v %v %v|", r.QueriesStarted, r.QueriesDone, r.QCT50, r.QCT99, r.QCTMax)
	fmt.Fprintf(h, "bg %d fct %v %v %v|", r.BGFlowsDone, r.ShortFCT50, r.ShortFCT99, r.BGFCT99)
	fmt.Fprintf(h, "drops %v %d nic %d|", r.Drops, r.TotalDrops, r.HostNICDrops)
	fmt.Fprintf(h, "detours %d max %d p99 %v data %d|", r.Detours, r.MaxDetours, r.DetourP99, r.DeliveredData)
	fmt.Fprintf(h, "recovery %d %d %d|", r.Timeouts, r.Retransmits, r.FastRecovers)
	fmt.Fprintf(h, "fluid %d %d %d %d", r.FluidBytes, r.FluidDemotions, r.FluidPromotions, r.FluidFlows)
	return fmt.Sprintf("%016x", h.Sum64())
}

// referencesJSON maps workload -> seed -> the fingerprints of that seed's
// simulations in batch order, as recorded on linux/amd64. Other
// architectures may fuse floating-point operations differently, so the
// comparison runs on amd64 only.
//
//go:embed fingerprints.json
var referencesJSON []byte

type references map[string]map[string][]string

func loadReferences() (references, error) {
	var refs references
	if err := json.Unmarshal(referencesJSON, &refs); err != nil {
		return nil, fmt.Errorf("parsing fingerprints.json: %w", err)
	}
	if runtime.GOARCH != "amd64" {
		return references{}, nil
	}
	return refs, nil
}

// expected returns the recorded fingerprint of simulation i of a run, or ""
// when none was recorded.
func (refs references) expected(workload string, seed int64, i int) string {
	fps := refs[workload][fmt.Sprint(seed)]
	if i < len(fps) {
		return fps[i]
	}
	return ""
}

// checkResults returns what is wrong with one simulation's outputs: packets
// still borrowed from the pool, a query or flow left unfinished, a
// percentile with no samples, or a fingerprint that differs from want
// (when want is not empty).
func checkResults(r *dibs.Results, fp, want string) []string {
	var bad []string
	if r.PoolLive != 0 || r.PoolBorrowed != r.PoolReturned {
		bad = append(bad, fmt.Sprintf("pool not conserved: borrowed %d, returned %d, live %d",
			r.PoolBorrowed, r.PoolReturned, r.PoolLive))
	}
	if r.QueriesStarted == 0 || r.QueriesDone != r.QueriesStarted {
		bad = append(bad, fmt.Sprintf("queries: %d of %d completed", r.QueriesDone, r.QueriesStarted))
	}
	unfinished := 0
	r.Collector.EachFlow(func(f *metrics.FlowInfo) {
		if !f.Done() {
			unfinished++
		}
	})
	if unfinished > 0 || r.FluidFlows > 0 {
		bad = append(bad, fmt.Sprintf("%d flows unfinished, %d still under fluid custody", unfinished, r.FluidFlows))
	}
	if math.IsNaN(r.QCT99) || math.IsNaN(r.ShortFCT99) {
		bad = append(bad, "a QCT or short-flow FCT percentile has no samples")
	}
	if want != "" && fp != want {
		bad = append(bad, fmt.Sprintf("fingerprint %s, recorded %s", fp, want))
	}
	return bad
}
