package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"prepare/internal/control"
	"prepare/internal/replay"
	"prepare/internal/server"
	"prepare/internal/substrate"
)

// waitTimeout bounds every wait on the server, so a stalled pipeline
// fails the run instead of hanging it.
const waitTimeout = 120 * time.Second

// Poll intervals: alerts are polled finely because their observation
// time is the end of every latency sample; Stats, which builds a map
// over all tenants, is polled more coarsely.
const (
	alertPoll = 500 * time.Microsecond
	statsPoll = time.Millisecond
)

// serviceRun is everything measured on the server: the end-to-end
// metrics, the server-side per-layer figures, and the published
// streams verification compares.
type serviceRun struct {
	setupS []float64

	// Drain phase, summed over its bursts, and each burst's throughput.
	burstSPS     []float64
	drainSamples int64
	drainWall    time.Duration // first send until the last tick
	drainTail    time.Duration // last send until the last tick
	drainIngest  time.Duration // the server's per-frame ingest work
	gcCPU        float64       // GC share of GOMAXPROCS x drain wall time

	alertMS  []float64 // paced phase: one per alerted (tenant, instant)
	lateMS   []float64 // paced phase: generator lateness per frame
	ingestUS []float64 // drain phase: the server's ingest work per frame
	depthMax int       // paced phase: deepest shard queue seen

	attempted, failed int64
	stateMB           float64

	alerts []server.Alert
	audit  []server.AuditEntry
}

// activeShards counts the shards that own at least one tenant, by
// mirroring the server's placement through the engine's stable hash.
// Each of them ticks once per simulated second, so the server's total
// tick count tells when every tenant has ticked through an instant.
func activeShards(w *workload, shards int) (int, error) {
	ids := []substrate.VMID{"placement-probe"}
	sub, err := replay.NewAppendable(ids, replay.Config{})
	if err != nil {
		return 0, err
	}
	app, err := replay.NewApp(sub)
	if err != nil {
		return 0, err
	}
	ctl, err := control.New(control.SchemeNone, sub, app, control.Config{})
	if err != nil {
		return 0, err
	}
	tenants := make([]control.Tenant, w.Tenants)
	for t := range tenants {
		tenants[t] = control.Tenant{ID: tenantID(t), Controller: ctl}
	}
	eng, err := control.NewEngine(tenants, control.EngineOptions{Shards: shards})
	if err != nil {
		return 0, err
	}
	n := 0
	for i := 0; i < eng.NumShards(); i++ {
		if len(eng.ShardTenants(i)) > 0 {
			n++
		}
	}
	return n, nil
}

// connBuffer is the stream connection's send buffer in frames, about
// a socket buffer's worth: an open-loop client's writes queue there
// instead of waiting for the server to read, and block only once the
// server has fallen that far behind.
const connBuffer = 256

// ingestClock times the server's per-frame ingest work while on.
// Durations are appended by whichever goroutine runs the ingest and
// read only after the feeder is closed.
type ingestClock struct {
	on atomic.Bool
	ns []int64
}

// conn is an in-memory stream connection. The client writes whole
// frames; the server's IngestStream reads them as a byte stream. A
// write returns as soon as the frame is buffered, so the connection
// times the server's side instead: from handing out a frame's last
// byte to the server asking for the next one while it was already
// waiting, which is the server's decode, validation and enqueue of
// that frame.
type conn struct {
	frames chan []byte
	cur    []byte
	taken  time.Time
	clock  *ingestClock
}

func (c *conn) Read(p []byte) (int, error) {
	if len(c.cur) == 0 {
		var b []byte
		var ok bool
		select {
		case b, ok = <-c.frames:
			if ok && !c.taken.IsZero() && c.clock.on.Load() {
				c.clock.ns = append(c.clock.ns, time.Since(c.taken).Nanoseconds())
			}
		default:
			b, ok = <-c.frames
		}
		if !ok {
			return 0, io.EOF
		}
		c.cur = b
	}
	n := copy(p, c.cur)
	c.cur = c.cur[n:]
	if len(c.cur) == 0 {
		c.taken = time.Now()
	}
	return n, nil
}

// feeder is the client side of the ingest path: one IngestFrame call
// per frame, or one long-lived IngestStream connection.
type feeder struct {
	srv    *server.Server
	conn   *conn
	result chan error
	clock  ingestClock
}

func newFeeder(srv *server.Server, stream bool) *feeder {
	f := &feeder{srv: srv}
	if stream {
		f.conn = &conn{frames: make(chan []byte, connBuffer), clock: &f.clock}
		f.result = make(chan error, 1)
		go func() {
			_, err := srv.IngestStream(f.conn)
			f.result <- err
			// Drain what the client still writes, so it never blocks on
			// a connection nobody reads.
			for range f.conn.frames {
			}
		}()
	}
	return f
}

// send delivers one frame. Backpressure is not an error here: the
// rejected samples show in the server's counters.
func (f *feeder) send(b []byte) error {
	if f.conn != nil {
		select {
		case f.conn.frames <- b:
			return nil
		case err := <-f.result:
			f.result <- err
			return fmt.Errorf("stream ended early: %v", err)
		}
	}
	t0 := time.Now()
	_, err := f.srv.IngestFrame(b)
	if f.clock.on.Load() {
		f.clock.ns = append(f.clock.ns, time.Since(t0).Nanoseconds())
	}
	if errors.Is(err, server.ErrBackpressure) {
		return nil
	}
	return err
}

// close ends the stream connection, if any, and waits for the server
// side to finish reading it.
func (f *feeder) close() error {
	if f.conn == nil {
		return nil
	}
	close(f.conn.frames)
	return <-f.result
}

// waitTicks polls Stats until the server's total tick count reaches
// target and returns the time it saw it.
func waitTicks(srv *server.Server, target int64) (time.Time, error) {
	deadline := time.Now().Add(waitTimeout)
	for {
		st := srv.Stats()
		now := time.Now()
		if st.Failure != "" {
			return now, fmt.Errorf("server failed: %s", st.Failure)
		}
		if st.Ticks >= target {
			return now, nil
		}
		if now.After(deadline) {
			return now, fmt.Errorf("server stalled at %d of %d ticks", st.Ticks, target)
		}
		time.Sleep(statsPoll / 2)
	}
}

// serviceEnv is what every server of a run is built from.
type serviceEnv struct {
	w      *workload
	seed   int64
	lay    layout
	active int // shards that own tenants
	cfgs   []server.TenantConfig
	scfg   server.Config
}

func newServiceEnv(w *workload, seed int64, lay layout, shards int) (*serviceEnv, error) {
	cfgs, err := w.tenantConfigs(seed)
	if err != nil {
		return nil, err
	}
	active, err := activeShards(w, shards)
	if err != nil {
		return nil, err
	}
	// Every frame of the set-up prefix or of a drain burst fits in one
	// shard queue, so the unpaced sends never meet backpressure.
	longest := max(lay.prefix, w.burstInstants(lay))
	return &serviceEnv{
		w: w, seed: seed, lay: lay, active: active, cfgs: cfgs,
		scfg: server.Config{Shards: shards, QueueDepth: longest*w.Tenants + 1},
	}, nil
}

// ticksThrough is the server's total tick count once every tenant has
// ticked through the last instant before end.
func (e *serviceEnv) ticksThrough(end int) int64 { return lastTick(end) * int64(e.active) }

// setup builds and starts a server and ingests the pre-training prefix
// until the training tick has completed; the returned duration is
// setup_s.
func (e *serviceEnv) setup(prefix []frame) (*server.Server, *feeder, time.Duration, error) {
	start := time.Now()
	srv, err := server.New(e.cfgs, e.scfg)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := srv.Start(); err != nil {
		return nil, nil, 0, err
	}
	f := newFeeder(srv, e.w.Stream)
	for _, fr := range prefix {
		if err := f.send(fr.bytes); err != nil {
			f.close()
			srv.Close()
			return nil, nil, 0, fmt.Errorf("set-up ingest: %w", err)
		}
	}
	end, err := waitTicks(srv, e.ticksThrough(e.lay.prefix))
	if err != nil {
		f.close()
		srv.Close()
		return nil, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return srv, f, end.Sub(start), nil
}

// gcCPUSeconds reads the runtime's cumulative GC CPU estimate.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runService runs the timed phases on one server: set-up (repeated,
// the last server is kept), the unpaced drain phase, then the paced
// phase, and finally the state measurement.
func runService(e *serviceEnv, setups int) (*serviceRun, error) {
	w, lay := e.w, e.lay
	out := &serviceRun{}
	prefix, err := w.encodeFrames(e.seed, 0, lay.prefix)
	if err != nil {
		return nil, err
	}
	var srv *server.Server
	var f *feeder
	for i := 0; i < setups; i++ {
		if srv != nil {
			if err := f.close(); err != nil {
				return nil, err
			}
			srv.Close()
		}
		runtime.GC()
		var d time.Duration
		if srv, f, d, err = e.setup(prefix); err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, d.Seconds())
	}
	prefix = nil
	closed := false
	defer func() {
		if !closed {
			f.close()
			srv.Close()
		}
	}()
	base := srv.Stats()

	if err := out.drain(e, srv, f); err != nil {
		return nil, err
	}
	if err := out.paced(e, srv, f); err != nil {
		return nil, err
	}

	closed = true
	if err := f.close(); err != nil {
		srv.Close()
		return nil, fmt.Errorf("stream ingest: %w", err)
	}
	for _, ns := range f.clock.ns {
		out.drainIngest += time.Duration(ns)
		out.ingestUS = append(out.ingestUS, float64(ns)/1e3)
	}
	// Close drains the publisher, so the logs are complete afterwards;
	// the closed server still holds all of its state for the heap
	// measurement below.
	if err := srv.Close(); err != nil {
		return nil, err
	}
	if err := srv.Failure(); err != nil {
		return nil, fmt.Errorf("server failed: %w", err)
	}
	st := srv.Stats()
	out.failed = (st.SamplesRejected - base.SamplesRejected) + (st.AppendErrors - base.AppendErrors)
	out.alerts = srv.Alerts(0, 0)
	out.audit = srv.Audit(0, 0)
	if int64(len(out.alerts)) != st.AlertsPublished || int64(len(out.audit)) != st.StepsPublished {
		return nil, fmt.Errorf("published logs truncated: %d of %d alerts, %d of %d actions retained",
			len(out.alerts), st.AlertsPublished, len(out.audit), st.StepsPublished)
	}

	withServer := heapAfterGC()
	srv, f = nil, nil
	released := heapAfterGC()
	out.stateMB = (float64(withServer) - float64(released)) / 1e6
	return out, nil
}

// drain sends the drain segment in unpaced bursts. Each burst is
// clocked from its first send until the server has ticked through its
// last instant; throughput is the median over bursts.
func (out *serviceRun) drain(e *serviceEnv, srv *server.Server, f *feeder) error {
	var gcSeconds float64
	step := e.w.burstInstants(e.lay)
	runtime.GC()
	f.clock.on.Store(true)
	defer f.clock.on.Store(false)
	for from := e.lay.prefix; from < e.lay.drainEnd; from += step {
		to := min(from+step, e.lay.drainEnd)
		frames, err := e.w.encodeFrames(e.seed, from, to)
		if err != nil {
			return err
		}
		gc0 := gcCPUSeconds()
		first := time.Now()
		samples := 0
		for i := range frames {
			if err := f.send(frames[i].bytes); err != nil {
				return fmt.Errorf("drain ingest: %w", err)
			}
			samples += frames[i].rows
			frames[i].bytes = nil
		}
		lastSend := time.Now()
		end, err := waitTicks(srv, e.ticksThrough(to))
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		out.burstSPS = append(out.burstSPS, float64(samples)/end.Sub(first).Seconds())
		out.drainSamples += int64(samples)
		out.drainWall += end.Sub(first)
		out.drainTail += end.Sub(lastSend)
		gcSeconds += gcCPUSeconds() - gc0
	}
	out.gcCPU = gcSeconds / (out.drainWall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	out.attempted += out.drainSamples
	return nil
}

// observed is one alert as the poller first saw it.
type observed struct {
	tenant string
	timeS  int64
	seenAt time.Time
}

// poller is the alert consumer: it follows the alert log with a
// since-cursor and samples the shard queue depths.
type poller struct {
	srv      *server.Server
	cursor   uint64
	seen     []observed
	depthMax int
	gap      error
}

func (p *poller) pollAlerts() {
	batch := p.srv.Alerts(p.cursor, 0)
	now := time.Now()
	for _, a := range batch {
		if a.Seq != p.cursor+1 && p.gap == nil {
			p.gap = fmt.Errorf("alert cursor truncated: expected seq %d, got %d", p.cursor+1, a.Seq)
		}
		p.cursor = a.Seq
		p.seen = append(p.seen, observed{tenant: a.Tenant, timeS: a.Time.Seconds(), seenAt: now})
	}
}

// run polls until the server has ticked through target, then keeps
// polling alerts briefly so the publisher can hand over the last
// tick's alerts. Closing stop ends it early.
func (p *poller) run(target int64, stop <-chan struct{}) error {
	next := time.Now()
	deadline := next.Add(waitTimeout)
	for {
		select {
		case <-stop:
			return errors.New("poller stopped")
		default:
		}
		p.pollAlerts()
		if now := time.Now(); !now.Before(next) {
			next = now.Add(statsPoll)
			st := p.srv.Stats()
			for _, d := range st.QueueDepths {
				p.depthMax = max(p.depthMax, d)
			}
			if st.Failure != "" {
				return fmt.Errorf("server failed: %s", st.Failure)
			}
			if st.Ticks >= target {
				break
			}
			if now.After(deadline) {
				return fmt.Errorf("server stalled at %d of %d ticks", st.Ticks, target)
			}
		}
		time.Sleep(alertPoll)
	}
	for grace := time.Now().Add(5 * time.Millisecond); time.Now().Before(grace); {
		time.Sleep(alertPoll)
		p.pollAlerts()
	}
	return nil
}

// schedule is the paced phase's open-loop send plan: frame k is due at
// start + due[k], whatever happened to the frames before it.
type schedule struct {
	start time.Time
	due   []time.Duration
	// firstInstant and tenants locate frame k = (instant-firstInstant) *
	// tenants + tenant.
	firstInstant, tenants int
}

func newSchedule(frames []frame, rate float64, firstInstant, tenants int) *schedule {
	s := &schedule{due: make([]time.Duration, len(frames)), firstInstant: firstInstant, tenants: tenants}
	var sent int64
	for k := range frames {
		s.due[k] = time.Duration(float64(sent) / rate * float64(time.Second))
		sent += int64(frames[k].rows)
	}
	return s
}

// sendTime is the scheduled send time of the frame that carried the
// tenant's samples for the instant at simulated second timeS.
func (s *schedule) sendTime(tenant int, timeS int64) (time.Time, bool) {
	if timeS%samplingS != 0 || tenant < 0 || tenant >= s.tenants {
		return time.Time{}, false
	}
	k := (int(timeS/samplingS)-s.firstInstant)*s.tenants + tenant
	if k < 0 || k >= len(s.due) {
		return time.Time{}, false
	}
	return s.start.Add(s.due[k]), true
}

// alertLatencies turns observed alerts into latency samples: one per
// alerted (tenant, instant) of the schedule, from the scheduled send
// time of the frame that carried the tenant's samples for that
// instant to the first observation of an alert for it. Alerts outside
// the schedule are ignored.
func alertLatencies(seen []observed, s *schedule, tenantIndex map[string]int) []float64 {
	type key struct {
		tenant int
		timeS  int64
	}
	first := make(map[key]time.Time)
	for _, o := range seen {
		t, ok := tenantIndex[o.tenant]
		if !ok {
			continue
		}
		k := key{t, o.timeS}
		if at, ok := first[k]; !ok || o.seenAt.Before(at) {
			first[k] = o.seenAt
		}
	}
	keys := make([]key, 0, len(first))
	for k := range first {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].timeS != keys[j].timeS {
			return keys[i].timeS < keys[j].timeS
		}
		return keys[i].tenant < keys[j].tenant
	})
	var out []float64
	for _, k := range keys {
		if due, ok := s.sendTime(k.tenant, k.timeS); ok {
			out = append(out, float64(first[k].Sub(due).Nanoseconds())/1e6)
		}
	}
	return out
}

// paced sends the paced segment open-loop at the workload's rate while
// the poller follows the alert log.
func (out *serviceRun) paced(e *serviceEnv, srv *server.Server, f *feeder) error {
	frames, err := e.w.encodeFrames(e.seed, e.lay.drainEnd, e.lay.end)
	if err != nil {
		return err
	}
	sched := newSchedule(frames, e.w.PacedRate, e.lay.drainEnd, e.w.Tenants)
	p := &poller{srv: srv}
	if prior := srv.Alerts(0, 0); len(prior) > 0 {
		p.cursor = prior[len(prior)-1].Seq
	}
	runtime.GC()

	done, stop := make(chan error, 1), make(chan struct{})
	sched.start = time.Now()
	go func() { done <- p.run(e.ticksThrough(e.lay.end), stop) }()
	var sendErr error
	for k := range frames {
		due := sched.start.Add(sched.due[k])
		if ahead := time.Until(due); ahead > 0 {
			time.Sleep(ahead)
		}
		t0 := time.Now()
		out.lateMS = append(out.lateMS, float64(t0.Sub(due).Nanoseconds())/1e6)
		if sendErr = f.send(frames[k].bytes); sendErr != nil {
			break
		}
		out.attempted += int64(frames[k].rows)
		frames[k].bytes = nil
	}
	if sendErr != nil {
		close(stop)
		<-done
		return fmt.Errorf("paced ingest: %w", sendErr)
	}
	if err := <-done; err != nil {
		return fmt.Errorf("paced: %w", err)
	}
	if p.gap != nil {
		return p.gap
	}
	index := make(map[string]int, e.w.Tenants)
	for t := 0; t < e.w.Tenants; t++ {
		index[tenantID(t)] = t
	}
	out.alertMS = alertLatencies(p.seen, sched, index)
	out.depthMax = p.depthMax
	return nil
}
