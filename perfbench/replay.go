package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"sort"
	"time"

	"prepare/internal/chaos"
	"prepare/internal/control"
	metr "prepare/internal/metrics"
	"prepare/internal/pool"
	"prepare/internal/replay"
	"prepare/internal/server"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
)

// timedSubstrate is the traced replay's decorator on the substrate the
// controller is built against: it times the monitor's metric reads
// and counts the prevention layer's actuator calls and failures.
type timedSubstrate struct {
	substrate.Substrate
	layerClock
}

// layerClock is the decorator's running totals.
type layerClock struct {
	readNS, reads      int64
	advanceNS          int64
	actNS, acts, fails int64
}

func (c layerClock) minus(o layerClock) layerClock {
	return layerClock{
		readNS: c.readNS - o.readNS, reads: c.reads - o.reads, advanceNS: c.advanceNS - o.advanceNS,
		actNS: c.actNS - o.actNS, acts: c.acts - o.acts, fails: c.fails - o.fails,
	}
}

func (c *layerClock) add(o layerClock) {
	c.readNS += o.readNS
	c.reads += o.reads
	c.advanceNS += o.advanceNS
	c.actNS += o.actNS
	c.acts += o.acts
	c.fails += o.fails
}

func (s *timedSubstrate) Advance(now simclock.Time) {
	t0 := time.Now()
	s.Substrate.Advance(now)
	s.advanceNS += time.Since(t0).Nanoseconds()
}

func (s *timedSubstrate) Sample(id substrate.VMID) (metr.Vector, error) {
	t0 := time.Now()
	v, err := s.Substrate.Sample(id)
	s.readNS += time.Since(t0).Nanoseconds()
	s.reads++
	return v, err
}

func (s *timedSubstrate) act(t0 time.Time, err error) error {
	s.actNS += time.Since(t0).Nanoseconds()
	s.acts++
	if err != nil {
		s.fails++
	}
	return err
}

func (s *timedSubstrate) ScaleCPU(now simclock.Time, id substrate.VMID, pct float64) error {
	t0 := time.Now()
	return s.act(t0, s.Substrate.ScaleCPU(now, id, pct))
}

func (s *timedSubstrate) ScaleMem(now simclock.Time, id substrate.VMID, mb float64) error {
	t0 := time.Now()
	return s.act(t0, s.Substrate.ScaleMem(now, id, mb))
}

func (s *timedSubstrate) Migrate(now simclock.Time, id substrate.VMID, cpu, mem float64) error {
	t0 := time.Now()
	return s.act(t0, s.Substrate.Migrate(now, id, cpu, mem))
}

// replayTrace is what the traced replay measures, summed over tenants.
type replayTrace struct {
	appendNS, appends   int64
	advanceNS, advances int64

	// Sampling ticks after the training tick (refit ticks included).
	tickNS, tickVMSteps, tickAllocs int64
	tickMS                          []float64
	tickLayers                      layerClock

	trainNS         int64 // the training tick, all tenants
	retrainNS       int64 // refit ticks, all tenants
	retrainInstants map[int64]bool
	allLayers       layerClock
	measuredNS      int64 // drain and paced segment instants, all tenants
}

// replayOut is one tenant replay's published streams plus the time it
// spent on the drain segment and on both timed segments.
type replayOut struct {
	alerts              []server.Alert
	audit               []server.AuditEntry
	drainNS, measuredNS int64
}

// allocSample is reused so that reading the counter allocates nothing
// itself; only the traced passes read it, one goroutine at a time.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapAllocs is the process's cumulative count of heap allocations.
func heapAllocs() int64 {
	metrics.Read(allocSample)
	return int64(allocSample[0].Value.Uint64())
}

// replayTenant replays one tenant's trace over instants [0, end)
// through a single-threaded controller: the same append-then-advance
// sequence the server's shard workers run, over replay.NewAppendable
// and, when the workload has chaos, the same fault plan. With tr nil
// only the timed segments' instants are clocked, as a whole; otherwise
// every layer boundary is.
func replayTenant(w *workload, seed int64, tenant int, lay layout, cc control.Config, tr *replayTrace) (*replayOut, error) {
	sub, err := replay.NewAppendable(w.vmIDs(tenant), replay.Config{})
	if err != nil {
		return nil, err
	}
	app, err := replay.NewApp(sub)
	if err != nil {
		return nil, err
	}
	var loop substrate.Substrate = sub
	if plan := w.chaosPlan(seed, tenant); plan.Enabled() {
		if loop, err = chaos.New(sub, plan); err != nil {
			return nil, err
		}
	}
	var dec *timedSubstrate
	if tr != nil {
		dec = &timedSubstrate{Substrate: loop}
		loop = dec
	}
	ctl, err := control.New(control.SchemePREPARE, loop, app, cc)
	if err != nil {
		return nil, err
	}
	out := &replayOut{}
	samples := make([]metr.Sample, w.VMs)
	vms := w.vmIDs(tenant)
	for inst := 0; inst < lay.end; inst++ {
		for v := range samples {
			samples[v] = w.sample(seed, tenant, v, inst)
		}
		t0 := time.Now()
		for v, sm := range samples {
			a0 := time.Now()
			if err := sub.Append(vms[v], sm); err != nil {
				return nil, err
			}
			if tr != nil {
				tr.appendNS += time.Since(a0).Nanoseconds()
				tr.appends++
			}
		}
		// Instant inst covers the simulated seconds after the previous
		// sampling tick; the server never ticks second 0.
		for s := max(int64(inst-1)*samplingS+1, 1); s <= int64(inst)*samplingS; s++ {
			if tr == nil {
				sub.Advance(simclock.Time(s))
				if err := ctl.OnTick(simclock.Time(s)); err != nil {
					return nil, err
				}
				continue
			}
			if err := tr.tick(w, sub, ctl, dec, s); err != nil {
				return nil, err
			}
		}
		if inst >= lay.prefix {
			el := time.Since(t0).Nanoseconds()
			out.measuredNS += el
			if inst < lay.drainEnd {
				out.drainNS += el
			}
		}
	}
	id := tenantID(tenant)
	for _, a := range ctl.Alerts() {
		out.alerts = append(out.alerts, server.Alert{Tenant: id, Time: a.Time, VM: a.VM, Score: a.Score, Predicted: a.Predicted})
	}
	for _, st := range ctl.Steps() {
		out.audit = append(out.audit, server.AuditEntry{Tenant: id, Time: st.Time, VM: st.VM, Kind: st.Kind, Resource: st.Resource, Detail: st.Detail})
	}
	if tr != nil {
		tr.allLayers.add(dec.layerClock)
		tr.measuredNS += out.measuredNS
	}
	return out, nil
}

// tick runs one traced simulated second: the replay cursor advance,
// then the controller's OnTick, classified by what the tick does.
func (tr *replayTrace) tick(w *workload, sub *replay.Substrate, ctl *control.Controller, dec *timedSubstrate, s int64) error {
	t0 := time.Now()
	sub.Advance(simclock.Time(s))
	tr.advanceNS += time.Since(t0).Nanoseconds()
	tr.advances++

	// Only steady sampling ticks read the allocation counter: the read
	// is itself tracing overhead.
	steady := s%samplingS == 0 && s > w.TrainAtS
	before := dec.layerClock
	var allocs0 int64
	if steady {
		allocs0 = heapAllocs()
	}
	t1 := time.Now()
	if err := ctl.OnTick(simclock.Time(s)); err != nil {
		return err
	}
	el := time.Since(t1).Nanoseconds()
	switch {
	case s == w.TrainAtS:
		tr.trainNS += el
	case steady:
		tr.tickAllocs += heapAllocs() - allocs0
		if w.retrainTick(s) {
			tr.retrainNS += el
			if tr.retrainInstants == nil {
				tr.retrainInstants = map[int64]bool{}
			}
			tr.retrainInstants[s] = true
		}
		tr.tickNS += el
		tr.tickVMSteps += int64(w.VMs)
		tr.tickMS = append(tr.tickMS, float64(el)/1e6)
		tr.tickLayers.add(dec.layerClock.minus(before))
	}
	return nil
}

// canonicalAlerts and canonicalAudit sort a published stream by
// (time, tenant), stably, and clear sequence numbers, so a server's
// streams and the replays' compare regardless of how shards
// interleaved.
func canonicalAlerts(in []server.Alert) []server.Alert {
	out := append([]server.Alert(nil), in...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time.Before(out[j].Time)
		}
		return out[i].Tenant < out[j].Tenant
	})
	for i := range out {
		out[i].Seq = 0
	}
	return out
}

func canonicalAudit(in []server.AuditEntry) []server.AuditEntry {
	out := append([]server.AuditEntry(nil), in...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time.Before(out[j].Time)
		}
		return out[i].Tenant < out[j].Tenant
	})
	for i := range out {
		out[i].Seq = 0
	}
	return out
}

// sameStreams reports the first difference between two canonical
// alert and audit streams.
func sameStreams(what string, gotA, wantA []server.Alert, gotS, wantS []server.AuditEntry) error {
	gotA, wantA = canonicalAlerts(gotA), canonicalAlerts(wantA)
	gotS, wantS = canonicalAudit(gotS), canonicalAudit(wantS)
	if len(gotA) != len(wantA) {
		return fmt.Errorf("%s: %d alerts, the single-threaded replay has %d", what, len(gotA), len(wantA))
	}
	for i := range gotA {
		if gotA[i] != wantA[i] {
			return fmt.Errorf("%s: alert %d is %+v, the single-threaded replay has %+v", what, i, gotA[i], wantA[i])
		}
	}
	if len(gotS) != len(wantS) {
		return fmt.Errorf("%s: %d actions, the single-threaded replay has %d", what, len(gotS), len(wantS))
	}
	for i := range gotS {
		if gotS[i] != wantS[i] {
			return fmt.Errorf("%s: action %d is %+v, the single-threaded replay has %+v", what, i, gotS[i], wantS[i])
		}
	}
	return nil
}

// replayAll replays every tenant and concatenates their streams in
// tenant order. Untraced replays may spread tenants over workers; a
// traced replay accumulates into tr and runs them one at a time.
func replayAll(w *workload, seed int64, lay layout, tr *replayTrace, workers int) (*replayOut, error) {
	if tr != nil {
		workers = 1
	}
	outs := make([]*replayOut, w.Tenants)
	err := pool.Runner{Workers: workers}.ForEach(context.Background(), w.Tenants, func(_ context.Context, t int) error {
		cc, err := w.controlConfig(seed, t)
		if err != nil {
			return err
		}
		if outs[t], err = replayTenant(w, seed, t, lay, cc, tr); err != nil {
			return fmt.Errorf("replay %s: %w", tenantID(t), err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	all := &replayOut{}
	for _, out := range outs {
		all.alerts = append(all.alerts, out.alerts...)
		all.audit = append(all.audit, out.audit...)
		all.drainNS += out.drainNS
		all.measuredNS += out.measuredNS
	}
	return all, nil
}
