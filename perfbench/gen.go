package main

import (
	"fmt"
	"math"

	"prepare/internal/metrics"
	"prepare/internal/simclock"
	"prepare/internal/substrate"
	"prepare/internal/wire"
)

// The input generator is random access: the sample of (tenant, VM,
// instant) is a pure function of the seed and those indices. Phases,
// the verification replay and the traced passes can therefore each
// regenerate exactly the slice of the trace they need without holding
// the whole trace in memory.

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a splitmix64 stream keyed by one sample's coordinates.
type rng struct{ state uint64 }

func newRNG(seed int64, tenant, vm, instant int) rng {
	k := mix(uint64(seed))
	k = mix(k ^ uint64(tenant))
	k = mix(k ^ uint64(vm)<<20)
	return rng{state: mix(k ^ uint64(instant)<<40)}
}

func (r *rng) uniform() float64 {
	r.state = mix(r.state)
	return (float64(r.state>>11) + 0.5) / (1 << 53)
}

// normal draws one standard normal variate (Box-Muller).
func (r *rng) normal() float64 {
	u1, u2 := r.uniform(), r.uniform()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

func (r *rng) jitter(base, spread float64) float64 {
	if x := base + spread*r.normal(); x > 0 {
		return x
	}
	return 0
}

// episodeProgress reports whether t falls inside one of the VM's
// recurring fault episodes and how far into it.
func (w *workload) episodeProgress(tenant, vm int, t int64) (float64, bool) {
	onset, ok := w.faultOnset(tenant, vm)
	if !ok || t < onset {
		return 0, false
	}
	into := (t - onset) % w.PeriodS
	if into >= w.EpisodeS {
		return 0, false
	}
	return float64(into) / float64(w.EpisodeS), true
}

// sample generates one VM's metric vector and SLO label at an
// instant. The shape follows replay.SyntheticTrace: steady noisy
// levels, and inside a fault episode a CPU ramp with a shrinking
// free-memory pool, labelled abnormal past the first quarter.
func (w *workload) sample(seed int64, tenant, vm, instant int) metrics.Sample {
	t := int64(instant) * samplingS
	r := newRNG(seed, tenant, vm, instant)
	cpu, free := r.jitter(30, 2), r.jitter(300, 8)
	label := metrics.LabelNormal
	if p, in := w.episodeProgress(tenant, vm, t); in {
		cpu = r.jitter(60+35*p, 2)
		free = r.jitter(250-220*p, 6)
		if p > 0.25 {
			label = metrics.LabelAbnormal
		}
	}
	var v metrics.Vector
	v.Set(metrics.CPUTotal, cpu)
	v.Set(metrics.CPUUser, cpu*0.72)
	v.Set(metrics.CPUSystem, cpu*0.28)
	v.Set(metrics.FreeMem, free)
	v.Set(metrics.MemUsed, r.jitter(512-free, 5))
	v.Set(metrics.NetIn, r.jitter(800, 30))
	v.Set(metrics.NetOut, r.jitter(750, 30))
	v.Set(metrics.DiskRead, r.jitter(60, 4))
	v.Set(metrics.DiskWrite, r.jitter(30, 3))
	v.Set(metrics.Load1, cpu/100)
	v.Set(metrics.Load5, cpu/110)
	v.Set(metrics.CtxSwitch, r.jitter(400+35*cpu, 20))
	v.Set(metrics.PageFaults, r.jitter(40+2*(300-free), 5))
	return metrics.Sample{Time: simclock.Time(t), Values: v, Label: label}
}

func tenantID(i int) string { return fmt.Sprintf("t%03d", i) }

func vmID(tenant, vm int) substrate.VMID {
	return substrate.VMID(fmt.Sprintf("%s-vm%03d", tenantID(tenant), vm))
}

// frame is one encoded tenant batch: every VM of the tenant at one
// instant.
type frame struct {
	rows  int
	bytes []byte
}

// encodeFrames encodes the frames of instants [from, to) in send order:
// instant-major, tenants in index order.
func (w *workload) encodeFrames(seed int64, from, to int) ([]frame, error) {
	out := make([]frame, 0, (to-from)*w.Tenants)
	var b wire.Batch
	for inst := from; inst < to; inst++ {
		for t := 0; t < w.Tenants; t++ {
			b.Reset([]byte(tenantID(t)))
			for v := 0; v < w.VMs; v++ {
				sm := w.sample(seed, t, v, inst)
				b.Add(b.AddVM([]byte(vmID(t, v))), sm.Time.Seconds(), sm.Label, sm.Values[:])
			}
			buf, err := wire.AppendBatch(nil, &b)
			if err != nil {
				return nil, fmt.Errorf("encode %s at t=%d: %w", tenantID(t), inst*samplingS, err)
			}
			out = append(out, frame{rows: w.VMs, bytes: buf})
		}
	}
	return out, nil
}
