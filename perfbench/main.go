// Command perfbench is the repository's benchmark: it drives the
// controller service from outside, through its public API, with
// prediction on, and reports how fast predicted alerts come out.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each run sets the service up (server.New, Start, ingest of the
// pre-training prefix until the training tick completes), then runs
// two timed phases on that server: the drain phase sends one trace
// segment unpaced, in bursts that fit the shard queues, and measures
// throughput with prediction on; the paced phase sends the next
// segment open-loop at the workload's fixed rate and measures
// time-to-alert; its tail, alert_p99_ms, is the median of the p99s of
// consecutive windows of tailWindow samples. Every run is verified
// against single-threaded library replays of the same trace. With
// --trace 1 the run also times a decorated library replay, a detector
// micro-pass and a decode pass, and reports per-layer metrics.
//
// The last line of standard output is one JSON object: correct,
// attempted and failed samples, and the metrics by name with units.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// endToEnd lists the end-to-end metrics and their units.
var endToEnd = []struct{ name, unit string }{
	{"throughput_sps", "1/s"},
	{"alert_p50_ms", "ms"},
	{"alert_p99_ms", "ms"},
	{"setup_s", "s"},
	{"state_mb", "MB"},
}

// setups is how many times a run sets the service up; setup_s is the
// median.
const setups = 5

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 27

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", spec.DefaultSeed, "workload seed")
	seconds := fs.Int("seconds", defaultSeconds, "seconds the two timed phases measure")
	trace := fs.Int("trace", 0, "1 adds the traced per-layer pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 || fs.NArg() > 0 {
		fs.Usage()
		return 2
	}
	w, err := lookupWorkload(spec, *name)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	res, err := bench(w, spec, *seed, float64(*seconds), *trace == 1, runtime.NumCPU(), stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench runs one workload, prints the report and returns the result.
func bench(w *workload, spec benchSpec, seed int64, seconds float64, traced bool, shards int, out io.Writer) (*result, error) {
	lay := w.layout(seconds)
	meta := machineMeta()
	meta.Workload, meta.Seed, meta.Seconds, meta.Trace = w.Name, seed, seconds, traced
	meta.Shards, meta.PacedRate = shards, w.PacedRate
	meta.PrefixInstants, meta.DrainInstants, meta.PacedInstants = lay.prefix, lay.drainEnd-lay.prefix, lay.end-lay.drainEnd
	mb, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "meta %s\n", mb)

	env, err := newServiceEnv(w, seed, lay, shards)
	if err != nil {
		return nil, err
	}
	sr, err := runService(env, setups)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: sr.attempted, Failed: sr.failed, Metrics: map[string]metricValue{}}
	p99, windows := windowedPercentile(sr.alertMS, 99, tailWindow)
	e2e := map[string]float64{
		"throughput_sps": percentile(sr.burstSPS, 50),
		"alert_p50_ms":   percentile(sr.alertMS, 50),
		"alert_p99_ms":   p99,
		"setup_s":        percentile(sr.setupS, 50),
		"state_mb":       sr.stateMB,
	}
	for _, m := range endToEnd {
		note := ""
		switch m.name {
		case "alert_p50_ms":
			note = fmt.Sprintf("  (n=%d alerted tenant-instants)", len(sr.alertMS))
		case "alert_p99_ms":
			note = fmt.Sprintf("  (median over %d consecutive windows of >= %d of the n=%d samples; p99 of all of them %.6g ms)",
				windows, min(tailWindow, len(sr.alertMS)), len(sr.alertMS), percentile(sr.alertMS, 99))
		case "throughput_sps":
			note = fmt.Sprintf("  (median of %d drain bursts)", len(sr.burstSPS))
		case "setup_s":
			note = fmt.Sprintf("  (median of %d set-ups: %v)", len(sr.setupS), sr.setupS)
		}
		fmt.Fprintf(out, "%-16s %14.6g %s%s\n", m.name, e2e[m.name], m.unit, note)
		if !traced {
			res.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
	}
	fmt.Fprintf(out, "%-16s %14.6g (%d of %d samples)\n", "failed_ratio", ratio(float64(sr.failed), float64(sr.attempted)), sr.failed, sr.attempted)
	if len(sr.alertMS) == 0 {
		return nil, fmt.Errorf("the paced phase produced no alerts")
	}

	// The traced pass times the untraced replay as its single-threaded
	// baseline, so there it runs one tenant at a time.
	workers := runtime.GOMAXPROCS(0)
	if traced {
		workers = 1
	}
	oracle, err := replayAll(w, seed, lay, nil, workers)
	if err != nil {
		return nil, fmt.Errorf("verification replay: %w", err)
	}
	if err := sameStreams("server", sr.alerts, oracle.alerts, sr.audit, oracle.audit); err != nil {
		res.Correct = false
		fmt.Fprintf(out, "verification FAILED: %v\n", err)
	} else {
		fmt.Fprintf(out, "verification ok: %d alerts and %d actions match the single-threaded replay\n", len(oracle.alerts), len(oracle.audit))
	}
	if sr.failed > 0 {
		res.Correct = false
		fmt.Fprintf(out, "verification FAILED: %d samples failed\n", sr.failed)
	}
	if !traced {
		return res, nil
	}

	layers, err := tracePass(w, seed, lay, sr, oracle, out)
	if err != nil {
		return nil, err
	}
	if layers.divergence != nil {
		res.Correct = false
		fmt.Fprintf(out, "verification FAILED: %v\n", layers.divergence)
	}
	for _, m := range spec.PerLayer {
		v, ok := layers.values[m.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	return res, nil
}
