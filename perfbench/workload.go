package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"

	"prepare/internal/chaos"
	"prepare/internal/control"
	"prepare/internal/detector"
	"prepare/internal/monitor"
	"prepare/internal/server"
	"prepare/internal/substrate"
)

// samplingS is the controller's sampling interval; one instant is one
// sampling tick.
const samplingS = 5

// drainShare and pacedShare split a run's measured seconds between the
// unpaced drain phase and the paced phase. The drain segment is sized
// at twice the paced rate; the paced phase gets the larger share
// because its tail percentile needs the samples.
const (
	drainShare = 0.3
	pacedShare = 0.7
)

// The drain segment is sent in at least minBursts unpaced bursts, so
// throughput is a median over bursts, and a burst carries at most
// maxBurstSamples, because it sits in the shard queues at once as
// decoded frames. The paced segment's frames are all encoded before
// its phase starts; maxPacedSamples bounds their memory.
const (
	minBursts       = 8
	maxBurstSamples = 1 << 16
	maxPacedSamples = 1 << 20
)

// historyWindow bounds every VM's retained training series, so the
// server's state and the cost of a refit stop growing with run length.
// It holds more than any workload's training prefix.
const historyWindow = 240

//go:embed spec.json
var specJSON []byte

// benchSpec is perfbench/spec.json: the seeds, the per-workload paced
// rates and, for every per-layer metric, its unit and the end-to-end
// metric and workloads it should move.
type benchSpec struct {
	DefaultSeed int64                   `json:"default_seed"`
	HeldOutSeed int64                   `json:"held_out_seed"`
	Workloads   map[string]workloadSpec `json:"workloads"`
	PerLayer    []layerMetric           `json:"per_layer"`
}

type workloadSpec struct {
	PacedRateSPS float64 `json:"paced_rate_sps"`
}

// layerMetric is one per-layer metric: the end-to-end metrics it
// should move and on which workloads, or a note on why it moves none.
type layerMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Moves  []string `json:"moves"`
	On     []string `json:"on"`
	Note   string   `json:"note,omitempty"`
}

func loadSpec() (benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return s, fmt.Errorf("spec.json: %w", err)
	}
	return s, nil
}

// workload is one traffic mix: the fleet shape, the controller
// configuration every tenant runs, the fault model of the generated
// trace, and how frames reach the server.
type workload struct {
	Name         string
	Tenants, VMs int
	Detector     string
	TrainAtS     int64
	RetrainS     int64
	ChaosRate    float64
	// StuckThreshold enables the monitor's stuck-sensor detection.
	StuckThreshold int
	// Stream sends every frame over one IngestStream connection
	// instead of one IngestFrame call per frame.
	Stream bool
	// Fault model: faultOnset picks the faulty VMs and their first
	// onset; episodes of EpisodeS seconds recur every PeriodS.
	PeriodS, EpisodeS int64
	faultOnset        func(tenant, vm int) (int64, bool)

	PacedRate float64
}

// workloads lists the benchmark's traffic mixes; BENCHMARK.json gives
// the reason for each.
func workloads() []*workload {
	return []*workload{
		{
			// Both shards, the scalar detector path (whose TAN member
			// runs the Markov look-ahead), periodic refits, chaos on the
			// metric and actuation paths, one faulty VM per tenant.
			Name: "ensemble-churn", Tenants: 16, VMs: 4, Detector: "ensemble:tan+ewma",
			TrainAtS: 600, RetrainS: 300, ChaosRate: 0.02, StuckThreshold: 3,
			PeriodS: 300, EpisodeS: 200,
			faultOnset: func(tenant, vm int) (int64, bool) {
				return 50 + samplingS*int64((tenant*5)%13), vm == tenant%4
			},
		},
		{
			// A cheap detector, so ingest, replay and monitoring dominate.
			Name: "ewma-ingest", Tenants: 128, VMs: 8, Detector: "ewma",
			TrainAtS: 300, Stream: true, PeriodS: 600, EpisodeS: 240,
			faultOnset: func(tenant, vm int) (int64, bool) {
				return 100 + samplingS*int64((tenant*7)%25), vm == tenant%8
			},
		},
	}
}

// lookupWorkload returns the named workload with its paced rate from
// the spec.
func lookupWorkload(spec benchSpec, name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.Name == name {
			ws, ok := spec.Workloads[name]
			if !ok || ws.PacedRateSPS <= 0 {
				return nil, fmt.Errorf("spec.json has no paced rate for workload %q", name)
			}
			w.PacedRate = ws.PacedRateSPS
			return w, nil
		}
		names = append(names, w.Name)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// samplesPerInstant is the fleet size: one sample per VM per instant.
func (w *workload) samplesPerInstant() int { return w.Tenants * w.VMs }

// burstInstants is how many instants one unpaced drain burst carries.
func (w *workload) burstInstants(lay layout) int {
	perBurst := (lay.drainEnd - lay.prefix + minBursts - 1) / minBursts
	return max(min(maxBurstSamples/w.samplesPerInstant(), perBurst), 1)
}

// layout fixes a run's trace segments in instants: the set-up prefix
// [0, prefix) ends with the training instant, the drain segment is
// [prefix, drainEnd) and the paced segment [drainEnd, end).
type layout struct {
	prefix, drainEnd, end int
}

func (w *workload) layout(seconds float64) layout {
	spi := float64(w.samplesPerInstant())
	drain := int(2*w.PacedRate*drainShare*seconds/spi + 0.5)
	paced := int(min(w.PacedRate*pacedShare*seconds, maxPacedSamples)/spi + 0.5)
	prefix := int(w.TrainAtS/samplingS) + 1
	return layout{
		prefix:   prefix,
		drainEnd: prefix + max(drain, 1),
		end:      prefix + max(drain, 1) + max(paced, 1),
	}
}

// lastTick is the final simulated second of a segment ending before
// instant end.
func lastTick(end int) int64 { return int64(end-1) * samplingS }

func (w *workload) vmIDs(tenant int) []substrate.VMID {
	ids := make([]substrate.VMID, w.VMs)
	for v := range ids {
		ids[v] = vmID(tenant, v)
	}
	return ids
}

func (w *workload) seedOf(seed int64, tenant int) int64 { return seed*1_000_003 + int64(tenant)*1009 }

// controlConfig is the controller configuration every tenant of the
// workload runs, in the server and in the library replays alike.
func (w *workload) controlConfig(seed int64, tenant int) (control.Config, error) {
	spec, err := detector.ParseSpec(w.Detector)
	if err != nil {
		return control.Config{}, err
	}
	return control.Config{
		TrainAtS:             w.TrainAtS,
		RetrainIntervalS:     w.RetrainS,
		RetrainMode:          control.RetrainBatch,
		Detector:             spec,
		MonitorNoiseStd:      -1,
		MonitorSeed:          w.seedOf(seed, tenant),
		MonitorResilience:    monitor.Resilience{StuckThreshold: w.StuckThreshold},
		HistoryWindowSamples: historyWindow,
	}, nil
}

func (w *workload) chaosPlan(seed int64, tenant int) chaos.Plan {
	if w.ChaosRate <= 0 {
		return chaos.Plan{}
	}
	return chaos.Uniform(w.seedOf(seed, tenant), w.ChaosRate)
}

func (w *workload) tenantConfigs(seed int64) ([]server.TenantConfig, error) {
	out := make([]server.TenantConfig, w.Tenants)
	for t := range out {
		cc, err := w.controlConfig(seed, t)
		if err != nil {
			return nil, err
		}
		out[t] = server.TenantConfig{ID: tenantID(t), VMs: w.vmIDs(t), Control: cc, Chaos: w.chaosPlan(seed, t)}
	}
	return out, nil
}

// retrainTick reports whether the controller refits its models at
// simulated second s: the deadline is re-armed a full interval after
// each training, and every deadline lands on a sampling tick.
func (w *workload) retrainTick(s int64) bool {
	return w.RetrainS > 0 && s > w.TrainAtS && (s-w.TrainAtS)%w.RetrainS == 0
}
