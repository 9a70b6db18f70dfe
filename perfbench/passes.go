package main

import (
	"fmt"
	"time"

	"prepare/internal/detector"
	"prepare/internal/metrics"
	"prepare/internal/predict"
	"prepare/internal/wire"
)

// predictPass is the detector micro-pass: every VM's detector, built
// the way the controller builds it, trained on the set-up prefix and
// stepped through the drain segment of the workload's rows.
type predictPass struct {
	updateNS, scoreNS, steps int64
	verdictNS                int64
	allocs                   int64
	trainNS, retrainNS, vms  int64
	raw, confirmed           int64
}

// tenantLabels is the SLO label the controller applies at each
// instant: abnormal whenever any of the tenant's VMs is.
func (w *workload) tenantLabels(seed int64, tenant, end int) []metrics.Label {
	out := make([]metrics.Label, end)
	for inst := range out {
		out[inst] = metrics.LabelNormal
		for v := 0; v < w.VMs; v++ {
			if w.sample(seed, tenant, v, inst).Label == metrics.LabelAbnormal {
				out[inst] = metrics.LabelAbnormal
				break
			}
		}
	}
	return out
}

// history returns one VM's rows over instants [0, end).
func (w *workload) history(seed int64, tenant, vm, end int) [][]float64 {
	rows := make([][]float64, end)
	for inst := range rows {
		sm := w.sample(seed, tenant, vm, inst)
		rows[inst] = append([]float64(nil), sm.Values[:]...)
	}
	return rows
}

func runPredictPass(w *workload, seed int64, lay layout) (*predictPass, error) {
	spec, err := detector.ParseSpec(w.Detector)
	if err != nil {
		return nil, err
	}
	var fleet *predict.Fleet
	if spec.Kind == detector.KindTAN {
		fleet = predict.NewFleet()
	}
	p := &predictPass{}
	row := make([]float64, metrics.NumAttributes)
	for t := 0; t < w.Tenants; t++ {
		cc, err := w.controlConfig(seed, t)
		if err != nil {
			return nil, err
		}
		opts := predict.DetectorOptions{
			Names:           predict.AttributeNames(),
			Config:          predict.Config{SamplingIntervalS: samplingS},
			Margin:          2.0,
			LookbackSamples: int(120 / samplingS),
			Seed:            cc.MonitorSeed,
			Fleet:           fleet,
		}
		labels := w.tenantLabels(seed, t, lay.drainEnd)
		dets := make([]detector.Detector, w.VMs)
		filters := make([]*predict.AlarmFilter, w.VMs)
		for v := range dets {
			hist := w.history(seed, t, v, lay.prefix)
			d, ns, err := trainDetector(spec, opts, hist, labels[:lay.prefix])
			if err != nil {
				return nil, err
			}
			dets[v], p.trainNS, p.vms = d, p.trainNS+ns, p.vms+1
			if filters[v], err = predict.NewAlarmFilter(predict.DefaultAlarmK, predict.DefaultAlarmW); err != nil {
				return nil, err
			}
		}
		// The controller observes the training instant's row right after
		// the fit, then one row per sampling tick.
		allocs0 := heapAllocs()
		for inst := lay.prefix - 1; inst < lay.drainEnd; inst++ {
			for v, d := range dets {
				sm := w.sample(seed, t, v, inst)
				copy(row, sm.Values[:])
				if err := p.step(d, filters[v], row); err != nil {
					return nil, fmt.Errorf("%s VM %d at t=%d: %w", tenantID(t), v, inst*samplingS, err)
				}
			}
		}
		p.allocs += heapAllocs() - allocs0
		// A batch refit over the retained history, as a periodic retrain
		// performs it.
		from := max(lay.drainEnd-historyWindow, 0)
		for v := range dets {
			hist := w.history(seed, t, v, lay.drainEnd)[from:]
			_, ns, err := trainDetector(spec, opts, hist, labels[from:])
			if err != nil {
				return nil, err
			}
			p.retrainNS += ns
		}
	}
	return p, nil
}

func trainDetector(spec detector.Spec, opts predict.DetectorOptions, rows [][]float64, labels []metrics.Label) (detector.Detector, int64, error) {
	d, err := predict.NewDetector(spec, opts)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := d.Train(rows, labels); err != nil {
		return nil, 0, err
	}
	return d, time.Since(t0).Nanoseconds(), nil
}

// step is one VM-step: observe the row, score the look-ahead window,
// and materialize the verdict when the k-of-W filter confirms.
func (p *predictPass) step(d detector.Detector, f *predict.AlarmFilter, row []float64) error {
	t0 := time.Now()
	if err := d.Observe(row); err != nil {
		return err
	}
	t1 := time.Now()
	dec, err := d.Score(120)
	if err != nil {
		return err
	}
	t2 := time.Now()
	p.updateNS += t1.Sub(t0).Nanoseconds()
	p.scoreNS += t2.Sub(t1).Nanoseconds()
	p.steps++
	if !dec.Abnormal {
		f.Offer(false)
		return nil
	}
	p.raw++
	if !f.Offer(true) {
		return nil
	}
	p.confirmed++
	t3 := time.Now()
	if _, err := d.Verdict(); err != nil {
		return err
	}
	p.verdictNS += time.Since(t3).Nanoseconds()
	return nil
}

// decodePass times wire.DecodeBatch over the frames of the first
// drain burst, repeating whole passes until at least minDecode has
// been measured.
func decodePass(w *workload, seed int64, lay layout) (nsPerSample float64, err error) {
	const minDecode = 200 * time.Millisecond
	frames, err := w.encodeFrames(seed, lay.prefix, min(lay.prefix+w.burstInstants(lay), lay.drainEnd))
	if err != nil {
		return 0, err
	}
	var arena wire.Arena
	var total time.Duration
	var samples int64
	for total < minDecode {
		t0 := time.Now()
		for _, fr := range frames {
			payload, err := wire.Payload(fr.bytes)
			if err != nil {
				return 0, err
			}
			b, err := wire.DecodeBatch(payload, &arena)
			if err != nil {
				return 0, err
			}
			samples += int64(b.Rows())
		}
		total += time.Since(t0)
	}
	return float64(total.Nanoseconds()) / float64(samples), nil
}
