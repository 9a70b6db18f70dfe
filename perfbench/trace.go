package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
)

// layerReport is the traced pass's outcome: every per-layer metric by
// name, and any divergence of the decorated replay from the untraced
// one.
type layerReport struct {
	values     map[string]float64
	divergence error
}

// tracePass runs the decorated library replay, the detector micro-pass
// and the decode pass, and prints the per-layer metrics, each layer's
// share of control.tick time and of drain-phase wall time, the
// unexplained remainder and the tracing overhead.
func tracePass(w *workload, seed int64, lay layout, sr *serviceRun, oracle *replayOut, out io.Writer) (*layerReport, error) {
	tr := &replayTrace{}
	decorated, err := replayAll(w, seed, lay, tr, 1)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	rep := &layerReport{values: map[string]float64{}}
	rep.divergence = sameStreams("traced replay", decorated.alerts, oracle.alerts, decorated.audit, oracle.audit)

	runtime.GC()
	pp, err := runPredictPass(w, seed, lay)
	if err != nil {
		return nil, fmt.Errorf("detector micro-pass: %w", err)
	}
	decodeNS, err := decodePass(w, seed, lay)
	if err != nil {
		return nil, fmt.Errorf("decode pass: %w", err)
	}
	retrainMS, retrainNote, err := retrainCost(w, seed, lay, tr)
	if err != nil {
		return nil, fmt.Errorf("retrain probe: %w", err)
	}

	drainSamples := float64(sr.drainSamples)
	v := rep.values
	v["wire.decode_ns_per_sample"] = decodeNS
	v["server.ingest_p50_us"] = percentile(sr.ingestUS, 50)
	v["server.ingest_p99_us"] = percentile(sr.ingestUS, 99)
	v["server.queue_depth_max"] = float64(sr.depthMax)
	v["server.drain_tail_s"] = sr.drainTail.Seconds()
	v["gen.late_p99_ms"] = percentile(sr.lateMS, 99)
	v["replay.append_ns_per_sample"] = ratio(float64(tr.appendNS), float64(tr.appends))
	v["replay.advance_us_per_tick"] = ratio(float64(tr.advanceNS), float64(tr.advances)) / 1e3
	v["monitor.read_ns_per_vm"] = ratio(float64(tr.allLayers.readNS), float64(tr.allLayers.reads))
	v["prevent.actions"] = float64(tr.allLayers.acts)
	v["prevent.action_failed_ratio"] = ratio(float64(tr.allLayers.fails), float64(tr.allLayers.acts))
	v["control.tick_us_per_vm"] = ratio(float64(tr.tickNS), float64(tr.tickVMSteps)) / 1e3
	v["control.tick_p99_ms"] = percentile(tr.tickMS, 99)
	v["control.train_ms"] = float64(tr.trainNS) / 1e6
	v["control.retrain_ms"] = retrainMS
	v["control.allocs_per_vm_step"] = ratio(float64(tr.tickAllocs), float64(tr.tickVMSteps))
	measuredSamples := float64((lay.end - lay.prefix) * w.samplesPerInstant())
	v["control.single_thread_sps"] = measuredSamples / (float64(oracle.measuredNS) / 1e9)
	v["predict.update_us"] = ratio(float64(pp.updateNS), float64(pp.steps)) / 1e3
	v["predict.score_us"] = ratio(float64(pp.scoreNS), float64(pp.steps)) / 1e3
	v["predict.verdict_us"] = ratio(float64(pp.verdictNS), float64(pp.confirmed)) / 1e3
	v["predict.train_ms_per_vm"] = ratio(float64(pp.trainNS), float64(pp.vms)) / 1e6
	v["predict.retrain_ms_per_vm"] = ratio(float64(pp.retrainNS), float64(pp.vms)) / 1e6
	v["predict.allocs_per_vm_step"] = ratio(float64(pp.allocs), float64(pp.steps))
	v["predict.filter_yield"] = ratio(float64(pp.confirmed), float64(pp.raw))
	v["runtime.gc_cpu_fraction"] = sr.gcCPU

	names := make([]string, 0, len(v))
	for k := range v {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-30s %14.6g\n", k, v[k])
	}
	fmt.Fprintf(out, "control.retrain_ms: %s\n", retrainNote)

	// control.tick: where the steady-state sampling ticks' time went.
	// Monitor reads and actuator calls are timed inside the tick by the
	// decorator; the detector share is the micro-pass's per-call costs
	// times the replay's call counts.
	alertsAfterTrain := 0
	for _, a := range oracle.alerts {
		if a.Time.Seconds() > w.TrainAtS {
			alertsAfterTrain++
		}
	}
	refits := float64(len(tr.retrainInstants) * w.Tenants * w.VMs)
	predictNS := float64(pp.updateNS+pp.scoreNS)/float64(pp.steps)*float64(tr.tickVMSteps) +
		ratio(float64(pp.verdictNS), float64(pp.confirmed))*float64(alertsAfterTrain) +
		ratio(float64(pp.retrainNS), float64(pp.vms))*refits
	tick := float64(tr.tickNS)
	monitorNS := float64(tr.tickLayers.readNS + tr.tickLayers.advanceNS)
	preventNS := float64(tr.tickLayers.actNS)
	fmt.Fprintf(out, "share of control.tick (%.3f s over %d VM-steps after training):\n", tick/1e9, tr.tickVMSteps)
	for _, s := range []struct {
		name string
		ns   float64
	}{
		{"monitor (metric reads, timed)", monitorNS},
		{"prevent (actuator calls, timed)", preventNS},
		{"predict (micro-pass cost x calls)", predictNS},
		{"unexplained (control's own work)", tick - monitorNS - preventNS - predictNS},
	} {
		fmt.Fprintf(out, "  %-36s %7.2f%%\n", s.name, 100*s.ns/tick)
	}

	// Drain phase: the layers' estimated busy time over the segment the
	// server drained, against the wall time times the cores it had. The
	// untraced replay of the same segment gives replay and control
	// together; the traced per-call costs split them.
	capacity := sr.drainWall.Seconds() * 1e9 * float64(runtime.GOMAXPROCS(0))
	drainTicks := float64((lay.drainEnd-lay.prefix)*samplingS) * float64(w.Tenants)
	replayNS := v["replay.append_ns_per_sample"]*drainSamples + v["replay.advance_us_per_tick"]*1e3*drainTicks
	controlNS := float64(oracle.drainNS) - replayNS
	ingestNS := float64(sr.drainIngest.Nanoseconds())
	fmt.Fprintf(out, "share of drain-phase wall time (%.3f s x %d cores):\n", sr.drainWall.Seconds(), runtime.GOMAXPROCS(0))
	for _, s := range []struct {
		name string
		ns   float64
	}{
		{"server (ingest per frame)", ingestNS},
		{"  of which wire (decode)", decodeNS * drainSamples},
		{"replay (append, advance)", replayNS},
		{"control (OnTick)", controlNS},
		{"  of which predict", float64(pp.updateNS+pp.scoreNS) / float64(pp.steps) * drainSamples},
		{"idle and unexplained", capacity - ingestNS - replayNS - controlNS},
	} {
		fmt.Fprintf(out, "  %-36s %7.2f%%\n", s.name, 100*s.ns/capacity)
	}
	fmt.Fprintf(out, "tracing overhead: %+.2f%% (traced replay %.3f s, untraced %.3f s, both timed segments)\n",
		100*(float64(tr.measuredNS)/float64(oracle.measuredNS)-1), float64(tr.measuredNS)/1e9, float64(oracle.measuredNS)/1e9)
	return rep, nil
}

// retrainCost is control.retrain_ms: the OnTick time of one periodic
// refit across all tenants. Workloads that refit report the mean over
// the traced replay's refits; the others run a probe replay through
// the training prefix with one batch refit right after training.
func retrainCost(w *workload, seed int64, lay layout, tr *replayTrace) (float64, string, error) {
	if n := len(tr.retrainInstants); n > 0 {
		return float64(tr.retrainNS) / 1e6 / float64(n), fmt.Sprintf("mean of %d refits in the traced replay", n), nil
	}
	probe := *w
	probe.RetrainS = samplingS
	ptr := &replayTrace{}
	plen := layout{prefix: lay.prefix, drainEnd: lay.prefix + 1, end: lay.prefix + 1}
	if _, err := replayAll(&probe, seed, plen, ptr, 1); err != nil {
		return 0, "", err
	}
	return float64(ptr.retrainNS) / 1e6, "probe: one batch refit tick right after training", nil
}
