package main

// The traced run measures every layer from outside. The top level runs
// the workload through the load engine with a recording shim around the
// service it drives; each lower level then gets a freshly set-up rig
// and replays the recorded stream into that layer's public entry point.
// A layer's self time is its level's time minus the level below; the
// bottom level (the device, with the event engine under it) keeps all of
// its time, so the self times telescope to the top level's time.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/fs"
	"repro/internal/metrics"
	"repro/internal/nvme"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// opKind classifies a recorded operation.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opSync
)

// stream is an operation sequence recorded at one layer boundary, with
// the simulated instant each operation was issued.
type stream struct {
	at   []sim.Time
	pos  []int64
	meta []uint32 // size<<2 | kind
}

func newStream(capacity int) *stream {
	return &stream{
		at:   make([]sim.Time, 0, capacity),
		pos:  make([]int64, 0, capacity),
		meta: make([]uint32, 0, capacity),
	}
}

// add appends one operation; a nil stream records nothing, so a shim
// can sit in place while recording is off.
func (s *stream) add(t sim.Time, k opKind, pos int64, size int) {
	if s == nil {
		return
	}
	s.at = append(s.at, t)
	s.pos = append(s.pos, pos)
	s.meta = append(s.meta, uint32(size)<<2|uint32(k))
}

func (s *stream) len() int { return len(s.pos) }

func (s *stream) op(i int) (k opKind, pos int64, size int) {
	m := s.meta[i]
	return opKind(m & 3), s.pos[i], int(m >> 2)
}

func (s *stream) digest() string { return digest(s.at, s.pos, s.meta) }

func kindOf(write bool) opKind {
	if write {
		return opWrite
	}
	return opRead
}

// recService records what the load engine sends the service.
type recService struct {
	workload.Service
	rec *stream
}

func (s *recService) Issue(write bool, pos int64, size int, done func()) {
	s.rec.add(s.Engine().Now(), kindOf(write), pos, size)
	s.Service.Issue(write, pos, size, done)
}

func (s *recService) Sync(done func()) {
	s.rec.add(s.Engine().Now(), opSync, 0, 0)
	s.Service.Sync(done)
}

// recHost records what the KV store sends its host while rec is set.
type recHost struct {
	core.Host
	rec *stream
}

func (h *recHost) Submit(write bool, off int64, n int, done func()) {
	h.rec.add(h.Engine().Now(), kindOf(write), off, n)
	h.Host.Submit(write, off, n, done)
}

func (h *recHost) Sync(done func()) {
	h.rec.add(h.Engine().Now(), opSync, 0, 0)
	h.Host.Sync(done)
}

// recBackend records what the filesystem sends its child while rec is
// set.
type recBackend struct {
	fs.Backend
	eng *sim.Engine
	rec *stream
}

func (b *recBackend) Submit(write bool, off int64, n int, done func()) {
	b.rec.add(b.eng.Now(), kindOf(write), off, n)
	b.Backend.Submit(write, off, n, done)
}

func (b *recBackend) Flush(done func()) {
	b.rec.add(b.eng.Now(), opSync, 0, 0)
	b.Backend.Flush(done)
}

// target is one layer's public entry point as the replay drivers call
// it: a data operation and a durability barrier.
type target struct {
	submit  func(write bool, pos int64, size int, done func())
	barrier func(done func())
}

// qpDriver is the thinnest host that can drive a queue pair: it hands
// out command IDs, and reaps each completion the moment its CQE becomes
// visible.
type qpDriver struct {
	qp      *nvme.QueuePair
	pending []func()
	next    uint16
}

func newQPDriver(qp *nvme.QueuePair) *qpDriver {
	d := &qpDriver{qp: qp, pending: make([]func(), 1<<16)}
	qp.EnableInterrupts(false)
	qp.SetCompletionHook(d.reap)
	return d
}

func (d *qpDriver) target() target {
	return target{
		submit: func(write bool, pos int64, size int, done func()) {
			d.pending[d.next] = done
			d.qp.Submit(write, pos, size, d.next)
			d.next++
		},
		barrier: func(done func()) {
			d.pending[d.next] = done
			d.qp.SubmitFlush(d.next)
			d.next++
		},
	}
}

func (d *qpDriver) reap() {
	for {
		cid, ok := d.qp.Poll()
		if !ok {
			return
		}
		fn := d.pending[cid]
		d.pending[cid] = nil
		fn()
	}
}

// devDriver submits straight to the device with pooled requests.
type devDriver struct {
	dev  *ssd.Device
	free *devReq
}

type devReq struct {
	req  ssd.Request
	done func()
	next *devReq
}

func (d *devDriver) get(done func()) *devReq {
	r := d.free
	if r == nil {
		r = &devReq{}
		r.req.Done = func(sim.Time) {
			fn := r.done
			r.done = nil
			r.next = d.free
			d.free = r
			fn()
		}
	} else {
		d.free = r.next
	}
	r.done = done
	return r
}

func (d *devDriver) target() target {
	return target{
		submit: func(write bool, pos int64, size int, done func()) {
			r := d.get(done)
			r.req.Write, r.req.Op, r.req.Offset, r.req.Len = write, ssd.OpRead, pos, size
			d.dev.Submit(&r.req)
		},
		barrier: func(done func()) {
			r := d.get(done)
			r.req.Write, r.req.Op, r.req.Offset, r.req.Len = false, ssd.OpFlush, 0, 0
			d.dev.Submit(&r.req)
		},
	}
}

// replayer drives a recorded stream into a target.
type replayer struct {
	s         *stream
	t         target
	next, end int
	completed int
	doneFn    func()
}

func (p *replayer) issue() {
	k, pos, size := p.s.op(p.next)
	p.next++
	if k == opSync {
		p.t.barrier(p.doneFn)
	} else {
		p.t.submit(k == opWrite, pos, size, p.doneFn)
	}
}

// replay feeds s into t the way the level above issued it: closed loop
// with depth operations outstanding when depth > 0, each at its recorded
// instant otherwise. It returns the operations completed.
func replay(eng *sim.Engine, s *stream, t target, depth int) int {
	p := &replayer{s: s, t: t, end: s.len()}
	if depth > 0 {
		p.doneFn = func() {
			p.completed++
			if p.next < p.end {
				p.issue()
			}
		}
		for i := 0; i < depth && p.next < p.end; i++ {
			p.issue()
		}
	} else {
		p.doneFn = func() { p.completed++ }
		var fire func()
		fire = func() {
			for p.next < p.end && s.at[p.next] <= eng.Now() {
				p.issue()
			}
			if p.next < p.end {
				eng.At(s.at[p.next], fire)
			}
		}
		if s.len() > 0 {
			eng.At(max(s.at[0], eng.Now()), fire)
		}
	}
	eng.Run()
	return p.completed
}

// rung is one level of the ladder: host time and heap allocations to
// run the top level's operations from that layer down.
type rung struct {
	layer  string
	ns     int64
	allocs int64
}

func timeRung(layer string, f func()) rung {
	runtime.GC()
	c := startClock()
	f()
	d, a := c.stop()
	return rung{layer: layer, ns: d.Nanoseconds(), allocs: int64(a)}
}

// selfCosts turns the ladder's level totals into per-layer self costs.
// They telescope: the self costs sum exactly to the top level's totals.
func selfCosts(rungs []rung) []rung {
	out := make([]rung, len(rungs))
	for i, r := range rungs {
		out[i] = r
		if i+1 < len(rungs) {
			out[i].ns -= rungs[i+1].ns
			out[i].allocs -= rungs[i+1].allocs
		}
	}
	return out
}

// prepare builds and warms one rig for the ladder.
func (w *engineWorkload) prepare(seed uint64, sc scale, o rigOpts) *rig {
	sc.setups = 1
	r, _ := w.setup(seed, sc, o)
	return r
}

// topRun is what the top level measured besides its host cost: the
// operations completed, the counters around them, their simulated
// latencies and window, and the digest of the recorded stream.
type topRun struct {
	ops           uint64
	before, after counters
	lat           metrics.Histogram
	wall          sim.Time
	streamDigest  string
}

// runTop drives the first sc.traceOps ops of the measured load through
// the load engine, with a recording shim around the service.
func (w *engineWorkload) runTop(rep *report, r *rig, seed uint64, sc scale, rec *stream) (rung, *topRun) {
	top := &topRun{before: r.counters()}
	svc := &recService{Service: r.svc, rec: rec}
	var out loadOut
	rg := timeRung("workload", func() { out = w.load(svc, mix(seed, 0), sc.traceOps) })
	rep.Attempted += int64(sc.traceOps)
	rep.Failed += int64(checkLoad(rep, out, sc.traceOps))
	top.ops, top.lat, top.wall = out.completed, out.res.All, out.res.Wall
	top.after = r.counters()
	top.streamDigest = rec.digest()
	rep.check(uint64(rec.len()) == top.ops, "recorded %d ops at the service, engine completed %d", rec.len(), top.ops)
	return rg, top
}

// ladder measures every level for this workload, top first.
func (w *engineWorkload) ladder(rep *report, seed uint64, sc scale) ([]rung, *topRun) {
	n := sc.traceOps
	svcStream := newStream(n)
	var hostStream *stream
	r := w.prepare(seed, sc, rigOpts{recordHost: w.kind == rigKV})
	if r.above != nil {
		hostStream = newStream(n)
		r.above.rec = hostStream
	}
	rg, top := w.runTop(rep, r, seed, sc, svcStream)
	w.checkCounters(rep, top.before, top.after, top.ops)
	rungs := []rung{rg}

	// level replays s into the entry point of a fresh rig, checking
	// that every operation completes.
	level := func(layer string, o rigOpts, s *stream, depth int, entry func(r *rig) target, verify func(r *rig, before, after counters)) {
		r := w.prepare(seed, sc, o)
		t := entry(r)
		before := r.counters()
		var done int
		rungs = append(rungs, timeRung(layer, func() { done = replay(r.eng, s, t, depth) }))
		rep.check(done == s.len(), "%s level completed %d of %d replayed ops", layer, done, s.len())
		if verify != nil {
			verify(r, before, r.counters())
		}
	}
	graph := rigOpts{}
	manual := rigOpts{manual: true}
	// The QD1 reader's block stream replays closed-loop at depth 1; the
	// open loop's, and every stream the KV store issues, replay at their
	// recorded instants.
	blk, depth := svcStream, 0
	if w.kind == rigReadQD1 {
		depth = 1
	}
	if w.kind == rigKV {
		level("kv", graph, svcStream, kvDepth, func(r *rig) target { return target{r.store.Issue, r.store.Sync} }, nil)
		level("core", graph, hostStream, 0, func(r *rig) target { return target{r.graph.Submit, r.graph.Sync} }, nil)
		blk = newStream(hostStream.len())
		level("fs", manual, hostStream, 0, func(r *rig) target {
			r.below.rec = blk
			return target{r.fsys.Submit, r.fsys.Sync}
		}, func(r *rig, before, after counters) {
			dev := hostOps(after) - hostOps(before)
			rep.check(uint64(blk.len()) == dev, "fs child I/Os %d != device host reads+writes+flushes %d", blk.len(), dev)
		})
	} else {
		level("core", graph, blk, depth, func(r *rig) target { return target{r.graph.Submit, r.graph.Sync} }, nil)
	}
	stackLayer := "kernel"
	if w.kind == rigMixed {
		stackLayer = "spdk"
	}
	level(stackLayer, manual, blk, depth, func(r *rig) target { return target{r.stack.Submit, r.stack.Flush} }, nil)
	level("nvme", manual, blk, depth, func(r *rig) target { return newQPDriver(r.qp).target() },
		func(r *rig, before, after counters) {
			sub, dev := after.Submitted-before.Submitted, hostOps(after)-hostOps(before)
			rep.check(sub == uint64(blk.len()) && dev == sub,
				"nvme submits %d, device host ops %d, replayed %d", sub, dev, blk.len())
		})
	level("ssd", manual, blk, depth, func(r *rig) target { return (&devDriver{dev: r.dev}).target() }, nil)
	return rungs, top
}

// hostOps counts every host command the device served.
func hostOps(c counters) uint64 {
	return c.Dev.HostReads + c.Dev.HostWrites + c.Dev.HostFlushes
}

// probePass repeats the top level with per-I/O phase breakdowns on. It
// returns the host time and the breakdown, and checks that the probes
// leave the operation stream untouched.
func (w *engineWorkload) probePass(rep *report, seed uint64, sc scale, want string) (rung, *probe.Breakdown) {
	probe.SetDefault(probe.Config{Breakdown: true})
	r := w.prepare(seed, sc, rigOpts{recordHost: w.kind == rigKV})
	probe.SetDefault(probe.Config{})
	if r.above != nil {
		r.above.rec = newStream(sc.traceOps)
	}
	sub := newReport()
	rg, top := w.runTop(sub, r, seed, sc, newStream(sc.traceOps))
	rep.check(sub.Correct, "probes-on pass failed its checks: %v", sub.Problems)
	rep.check(top.streamDigest == want, "probes changed the op stream")
	return rg, r.graph.Probe().Breakdown()
}

// layers are the ladder's layer names, as the per-layer metrics use them.
var layers = []string{"workload", "kv", "core", "fs", "kernel", "spdk", "nvme", "ssd"}

// traced runs the ladder, the probe pass and the event-core
// micro-costs, and reports every per-layer metric.
func (w *engineWorkload) traced(seed uint64, sc scale) *report {
	rep := newReport()
	defs := perLayerDefs()
	for _, d := range defs {
		rep.set(defs, d.Name, 0)
	}
	rungs, top := w.ladder(rep, seed, sc)
	ops := float64(top.ops)
	for _, s := range selfCosts(rungs) {
		rep.set(defs, s.layer+".self_us_per_op", float64(s.ns)/1e3/ops)
		rep.set(defs, s.layer+".allocs_per_op", float64(s.allocs)/ops)
	}
	rep.set(defs, "ladder.top_ops_per_s", ops/(float64(rungs[0].ns)/1e9))
	w.reportCounts(rep, defs, top)

	on, bd := w.probePass(rep, seed, sc, top.streamDigest)
	var grand sim.Time
	for _, s := range bd.Sum {
		grand += s
	}
	for ph := probe.Phase(0); ph < probe.NumPhases; ph++ {
		rep.set(defs, "probe."+ph.String()+"_share", ratio(float64(bd.Sum[ph]), float64(grand)))
	}
	rep.set(defs, "probe.overhead_pct", 100*(float64(on.ns)/float64(rungs[0].ns)-1))

	fire, cancel, claim := eventCosts()
	rep.set(defs, "sim.fire_ns", fire)
	rep.set(defs, "sim.cancel_ns", cancel)
	rep.set(defs, "cpu.claim_ns", claim)
	rep.Digest = digest(top.before, top.after, top.lat.Summarize(), top.streamDigest)
	return rep
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// reportCounts derives the exact per-op model counts from the top
// level's counter snapshots.
func (w *engineWorkload) reportCounts(rep *report, defs []metricDef, top *topRun) {
	b, a := top.before, top.after
	ops := float64(top.ops)
	d := func(x, y uint64) float64 { return float64(y - x) }
	set := func(name string, v float64) { rep.set(defs, name, v) }

	// Every read in these workloads is 4 KiB: a whole fs page or block.
	readSlots := d(b.Dev.HostReads, a.Dev.HostReads) * float64(4096/ssd.ZSSD().MappingUnitBytes())
	set("ssd.flash_reads_per_op", d(b.Dev.FlashReads, a.Dev.FlashReads)/ops)
	set("ssd.flash_programs_per_op", d(b.Dev.FlashPrograms, a.Dev.FlashPrograms)/ops)
	set("ssd.gc_migrations_per_op", d(b.Dev.GCMigrations, a.Dev.GCMigrations)/ops)
	hostSlots := d(b.Wear.HostSlots, a.Wear.HostSlots)
	set("ssd.write_amp", ratio(hostSlots+d(b.Wear.GCSlots, a.Wear.GCSlots), hostSlots))
	set("ssd.buffer_hit_frac", ratio(d(b.Dev.BufferHits, a.Dev.BufferHits), readSlots))
	set("ssd.read_cache_hit_frac", ratio(d(b.Dev.CacheHits, a.Dev.CacheHits), readSlots))
	set("nvme.msis_per_op", d(b.MSIs, a.MSIs)/ops)
	set("cpu.busy_frac", ratio(float64(a.CPUBusy-b.CPUBusy), float64(a.Now-b.Now)))
	set("workload.sim_lat_us_p50", top.lat.Percentile(50).Micros())
	set("workload.sim_lat_us_p99", top.lat.Percentile(99).Micros())
	set("workload.sim_kops", ratio(ops/1e3, top.wall.Seconds()))
	if w.kind != rigKV {
		return
	}
	set("fs.hit_frac", ratio(d(b.FS.Hits, a.FS.Hits), d(b.FS.Hits+b.FS.Misses, a.FS.Hits+a.FS.Misses)))
	set("fs.child_ios_per_op", d(hostOps(b), hostOps(a))/ops)
	set("fs.barriers_per_op", d(b.FS.Barriers, a.FS.Barriers)/ops)
	set("fs.writeback_pages_per_op", d(b.FS.WritebackPages, a.FS.WritebackPages)/ops)
	gets := d(b.KV.Gets, a.KV.Gets)
	set("kv.memtable_hit_frac", ratio(d(b.KV.MemHits, a.KV.MemHits), gets))
	set("kv.cache_hit_frac", ratio(d(b.KV.CacheHits, a.KV.CacheHits), gets))
	set("kv.block_reads_per_get", ratio(d(b.KV.BlockReads, a.KV.BlockReads), gets))
	set("kv.puts_per_wal_sync", ratio(d(b.KV.BatchedPuts, a.KV.BatchedPuts), d(b.KV.Batches, a.KV.Batches)))
	compacted := float64(a.KV.CompactRead + a.KV.CompactWritten - b.KV.CompactRead - b.KV.CompactWritten)
	set("kv.compact_bytes_per_put_byte", ratio(compacted, d(b.KV.Puts, a.KV.Puts)*kvValueBytes))
}

// eventCosts times the event core and the core arbiter alone, the two
// layers nothing sits below: one schedule+fire, one schedule+cancel,
// and one contended claim+hold, in host nanoseconds.
func eventCosts() (fire, cancel, claim float64) {
	const n = 1 << 21
	perOp := func(f func()) float64 {
		t := time.Now()
		f()
		return float64(time.Since(t).Nanoseconds()) / n
	}
	eng := sim.NewEngine()
	fn := func() {}
	fire = perOp(func() {
		for i := 0; i < n; i++ {
			eng.After(780, fn)
			eng.Run()
		}
	})
	cancel = perOp(func() {
		for i := 0; i < n; i++ {
			eng.After(780, fn).Cancel()
			eng.Run()
		}
	})
	p := cpu.NewCoreSet(2).Proc(0)
	now := sim.Time(0)
	claim = perOp(func() {
		for i := 0; i < n; i++ {
			start := p.Claim(now)
			p.Hold(start, start+5*sim.Microsecond)
			now = start + sim.Microsecond
		}
	})
	return fire, cancel, claim
}

// perLayerDefs lists every per-layer metric, in report order.
func perLayerDefs() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, l := range layers {
		add(l+".self_us_per_op", "us", lower)
		add(l+".allocs_per_op", "count", lower)
	}
	add("ladder.top_ops_per_s", "1/s", higher)
	add("sim.fire_ns", "ns", lower)
	add("sim.cancel_ns", "ns", lower)
	add("cpu.claim_ns", "ns", lower)
	for _, n := range []string{"flash_reads_per_op", "flash_programs_per_op", "gc_migrations_per_op"} {
		add("ssd."+n, "count", lower)
	}
	add("ssd.write_amp", "ratio", lower)
	add("ssd.buffer_hit_frac", "ratio", higher)
	add("ssd.read_cache_hit_frac", "ratio", higher)
	add("nvme.msis_per_op", "count", lower)
	add("fs.hit_frac", "ratio", higher)
	for _, n := range []string{"child_ios_per_op", "barriers_per_op", "writeback_pages_per_op"} {
		add("fs."+n, "count", lower)
	}
	add("kv.memtable_hit_frac", "ratio", higher)
	add("kv.cache_hit_frac", "ratio", higher)
	add("kv.block_reads_per_get", "count", lower)
	add("kv.puts_per_wal_sync", "count", higher)
	add("kv.compact_bytes_per_put_byte", "ratio", lower)
	add("cpu.busy_frac", "ratio", lower)
	add("workload.sim_lat_us_p50", "us", lower)
	add("workload.sim_lat_us_p99", "us", lower)
	add("workload.sim_kops", "kops/s", higher)
	for ph := probe.Phase(0); ph < probe.NumPhases; ph++ {
		add("probe."+ph.String()+"_share", "ratio", lower)
	}
	add("probe.overhead_pct", "%", lower)
	add("orchestrator.shard_s_p50", "s", lower)
	add("orchestrator.shard_s_p90", "s", lower)
	add("orchestrator.busy_frac", "ratio", higher)
	for _, e := range experiments.All() {
		add(fmt.Sprintf("experiments.%s.host_s", e.ID), "s", lower)
	}
	return defs
}
