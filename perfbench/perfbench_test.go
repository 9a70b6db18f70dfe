package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"prepare/internal/metrics"
)

func TestPercentileIsNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	cases := []struct {
		samples []float64
		p, want float64
	}{
		{hundred, 50, 50},
		{hundred, 99, 99},
		{hundred, 100, 100},
		{hundred, 0, 1},
		{[]float64{7}, 99, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2},
		// 0.99 * 150 = 148.5 rounds up to rank 149: one sample lies
		// beyond the p99, never an interpolation between two.
		{seq(150), 99, 149},
		{nil, 50, 0},
	}
	for _, c := range cases {
		if got := percentile(c.samples, c.p); got != c.want {
			t.Errorf("percentile(%d samples, %v) = %v, want %v", len(c.samples), c.p, got, c.want)
		}
	}
	if hundred[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

func TestWindowedPercentileIsTheMedianOfEachWindowsPercentile(t *testing.T) {
	// Five windows of 100 samples, 1..100 each, but the second and
	// fourth windows stalled: their top three samples are 1000. Each window's
	// p99 is 99 or 1000; the median of {99, 1000, 99, 1000, 99} is 99,
	// where the p99 of all 500 samples is 1000.
	var samples []float64
	for w := 0; w < 5; w++ {
		s := seq(100)
		if w%2 == 1 {
			s[97], s[98], s[99] = 1000, 1000, 1000
		}
		samples = append(samples, s...)
	}
	if got, n := windowedPercentile(samples, 99, 100); got != 99 || n != 5 {
		t.Errorf("windowedPercentile = %v over %d windows, want 99 over 5", got, n)
	}
	if got := percentile(samples, 99); got != 1000 {
		t.Errorf("percentile of all = %v, want 1000", got)
	}
	// A short remainder joins the last window; fewer samples than two
	// windows give the percentile of all of them.
	if got, n := windowedPercentile(seq(250), 50, 100); got != 50 || n != 2 {
		t.Errorf("windowedPercentile(250 samples) = %v over %d windows, want 50 (window 1..100) over 2", got, n)
	}
	if got, n := windowedPercentile(seq(150), 99, 100); got != 149 || n != 1 {
		t.Errorf("windowedPercentile(150 samples) = %v over %d windows, want 149 over 1", got, n)
	}
	if got, _ := windowedPercentile(nil, 99, 100); got != 0 {
		t.Errorf("windowedPercentile(nil) = %v, want 0", got)
	}
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestAlertLatencyIsFromTheCarryingFramesScheduledSendTime(t *testing.T) {
	start := time.Unix(1000, 0)
	// Two tenants, three instants from instant 10 (t=50 s): frames are
	// due every 10 ms in send order (instant-major).
	frames := make([]frame, 6)
	for k := range frames {
		frames[k] = frame{rows: 1}
	}
	s := newSchedule(frames, 100, 10, 2)
	s.start = start
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	index := map[string]int{"a": 0, "b": 1}
	seen := []observed{
		{tenant: "b", timeS: 50, seenAt: at(35)}, // frame 1, due at 10 ms
		{tenant: "b", timeS: 50, seenAt: at(36)}, // a second VM of the same tenant-instant
		{tenant: "a", timeS: 55, seenAt: at(47)}, // frame 2, due at 20 ms
		{tenant: "a", timeS: 60, seenAt: at(70)}, // frame 4, due at 40 ms
		{tenant: "a", timeS: 45, seenAt: at(71)}, // before the schedule
		{tenant: "b", timeS: 65, seenAt: at(72)}, // after the schedule
		{tenant: "c", timeS: 50, seenAt: at(73)}, // unknown tenant
		{tenant: "a", timeS: 52, seenAt: at(74)}, // not a sampling instant
	}
	got := alertLatencies(seen, s, index)
	want := []float64{25, 27, 30}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("latencies = %v, want %v", got, want)
	}
	// The earliest observation of a tenant-instant wins whatever order
	// the poller saw the alerts in.
	seen = []observed{{tenant: "a", timeS: 50, seenAt: at(9)}, {tenant: "a", timeS: 50, seenAt: at(4)}}
	if got := alertLatencies(seen, s, index); !reflect.DeepEqual(got, []float64{4}) {
		t.Fatalf("latencies = %v, want [4]", got)
	}
}

func TestScheduleIsOpenLoopAtTheRate(t *testing.T) {
	frames := []frame{{rows: 8}, {rows: 8}, {rows: 4}, {rows: 8}}
	s := newSchedule(frames, 1000, 0, 1)
	want := []time.Duration{0, 8 * time.Millisecond, 16 * time.Millisecond, 20 * time.Millisecond}
	if !reflect.DeepEqual(s.due, want) {
		t.Fatalf("due = %v, want %v", s.due, want)
	}
}

func TestGeneratorIsRandomAccessAndSeeded(t *testing.T) {
	w := mustWorkload(t, "ensemble-churn")
	a := w.sample(7, 3, 1, 40)
	if b := w.sample(7, 3, 1, 40); a != b {
		t.Fatal("the same coordinates gave different samples")
	}
	if b := w.sample(8, 3, 1, 40); a.Values == b.Values {
		t.Fatal("another seed gave the same sample")
	}
	// Tenant 3's faulty VM is VM 3; its episodes are labelled abnormal
	// past their first quarter, and a healthy VM never is.
	abnormal := func(vm int) (n int) {
		for inst := 0; inst < 120; inst++ {
			if w.sample(1, 3, vm, inst).Label == metrics.LabelAbnormal {
				n++
			}
		}
		return n
	}
	if abnormal(3) == 0 || abnormal(0) != 0 {
		t.Fatalf("abnormal instants: faulty VM %d, healthy VM %d", abnormal(3), abnormal(0))
	}
}

func mustSpec(t *testing.T) benchSpec {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func mustWorkload(t *testing.T, name string) *workload {
	t.Helper()
	w, err := lookupWorkload(mustSpec(t), name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// tiny shrinks a workload's fleet and paces it at 60 instants a
// second, so four measured seconds span a whole fault period.
func tiny(t *testing.T, name string) *workload {
	w := mustWorkload(t, name)
	switch name {
	case "ensemble-churn":
		w.Tenants = 2
	case "ewma-ingest":
		w.Tenants, w.VMs = 4, 4
	}
	w.PacedRate = float64(w.samplesPerInstant()) * 60
	return w
}

func TestSmokeEveryWorkload(t *testing.T) {
	spec := mustSpec(t)
	for _, full := range workloads() {
		w := tiny(t, full.Name)
		t.Run(w.Name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := bench(w, spec, spec.DefaultSeed, 4, true, 2, &out)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run reported %d metrics, want the %d per-layer ones", len(res.Metrics), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("per-layer metric %s missing", m.Name)
				}
			}
			for _, want := range []string{"verification ok", "share of control.tick", "share of drain-phase wall time", "unexplained", "tracing overhead"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("report lacks %q:\n%s", want, out.String())
				}
			}
		})
	}
}

func TestUntracedRunReportsTheEndToEndMetrics(t *testing.T) {
	var out bytes.Buffer
	res, err := bench(tiny(t, "ensemble-churn"), mustSpec(t), 3, 2, false, 2, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result lacks %q: %s", k, line)
		}
	}
	if len(got) != 4 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result %s has extra keys or metrics", line)
	}
	for _, m := range endToEnd {
		v, ok := res.Metrics[m.name]
		if !ok || v.Unit != m.unit || v.Value <= 0 {
			t.Errorf("metric %s = %+v, want a positive value in %s", m.name, v, m.unit)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "ewma-ingest", "--trace", "2"},
		{"--workload", "ewma-ingest", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want a failure and no result", args, code, stdout.String())
		}
	}
}

// TestBenchmarkJSONMatchesTheProgram pins the repository's
// BENCHMARK.json to the metrics and workloads this program reports,
// and spec.json's per-layer table to both.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json runs %d seconds, the program defaults to %d", b.RunSeconds, defaultSeconds)
	}
	spec := mustSpec(t)
	if spec.DefaultSeed == 0 || spec.HeldOutSeed == 0 || spec.HeldOutSeed == spec.DefaultSeed {
		t.Errorf("spec.json needs distinct default and held-out seeds, has %d and %d", spec.DefaultSeed, spec.HeldOutSeed)
	}
	names := map[string]bool{}
	for i, w := range workloads() {
		names[w.Name] = true
		if i >= len(b.Workloads) || b.Workloads[i].Name != w.Name || b.Workloads[i].Why == "" {
			t.Errorf("BENCHMARK.json workload %d does not describe %s", i, w.Name)
		}
		if spec.Workloads[w.Name].PacedRateSPS <= 0 {
			t.Errorf("spec.json has no paced rate for %s", w.Name)
		}
	}
	if len(b.Workloads) != len(names) || len(spec.Workloads) != len(names) {
		t.Errorf("workload lists differ: BENCHMARK.json %d, spec.json %d, program %d", len(b.Workloads), len(spec.Workloads), len(names))
	}
	e2e := map[string]bool{}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		e2e[m.name] = true
		if b.EndToEnd[i].Name != m.name || b.EndToEnd[i].Unit != m.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s/%s, program %s/%s", i, b.EndToEnd[i].Name, b.EndToEnd[i].Unit, m.name, m.unit)
		}
	}
	if len(b.PerLayer) != len(spec.PerLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, spec.json %d", len(b.PerLayer), len(spec.PerLayer))
	}
	for i, m := range spec.PerLayer {
		if got := b.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, spec.json %s/%s/%s", i, got, m.Name, m.Unit, m.Better)
		}
		if len(m.Moves) == 0 && m.Note == "" || len(m.On) == 0 {
			t.Errorf("%s names neither the metrics it moves nor a note, or no workload", m.Name)
		}
		for _, e := range m.Moves {
			if !e2e[e] {
				t.Errorf("%s moves unknown end-to-end metric %q", m.Name, e)
			}
		}
		for _, w := range m.On {
			if !names[w] {
				t.Errorf("%s names unknown workload %q", m.Name, w)
			}
		}
	}
}
