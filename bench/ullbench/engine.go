package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/kv"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/spdk"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// Workload shapes shared by set-up, the measured phase and the ladder.
const (
	precondition = 0.9
	mixedRate    = 400e3 // mixed-gc-open arrivals per simulated second
	kvKeys       = 16384
	kvValueBytes = 1 << 10
	kvDepth      = 4
)

// scale sizes one run. A run's measured phase is one call into the load
// engine with a fixed op count, so two commits simulate identical work;
// a timing shim stamps the host clock every batchOps issues.
type scale struct {
	ops       int
	batchOps  int
	warmupOps int
	setups    int // set-ups per run; setup_s is their median
	traceOps  int // ops the traced run's ladder replays
}

// engineWorkload is a workload driven by the repository's load engines:
// a block host or the KV store.
type engineWorkload struct {
	name string
	// opsPerS is the nominal rate on the 2-vCPU reference host; a run
	// of S seconds simulates opsPerS*S ops.
	opsPerS   float64
	warmupOps int
	setups    int
	kind      rigKind
	// load runs n operations through the load engine against svc, in
	// one engine call.
	load func(svc workload.Service, seed uint64, n int) loadOut
}

// loadOut is what one load reports for the correctness checks.
type loadOut struct {
	offered, completed, dropped uint64
	open                        bool
	res                         *workload.Result
}

// scaleFor sizes a run of the given length: a thousand timed batches,
// and a traced ladder over a tenth of the ops.
func (w *engineWorkload) scaleFor(seconds float64) scale {
	ops := int(w.opsPerS*seconds) / 1000 * 1000
	return scale{
		ops:       ops,
		batchOps:  ops / 1000,
		warmupOps: w.warmupOps,
		setups:    w.setups,
		traceOps:  ops / 10,
	}
}

// rigKind selects the system a workload builds.
type rigKind int

const (
	rigReadQD1 rigKind = iota
	rigMixed
	rigKV
)

// rigOpts selects how a rig is lowered. A graph rig is built by
// core.Build, as every experiment builds its systems; a hand-lowered rig
// repeats the same constructions through each layer's public
// constructor, so the ladder can enter the stack below core.Graph.
type rigOpts struct {
	manual bool
	// recordHost puts a recording shim between a graph rig's KV store
	// and its host.
	recordHost bool
}

// rig is one built system: the service the load engine drives, and the
// layers whose counters and entry points the benchmark uses.
type rig struct {
	eng   *sim.Engine
	svc   workload.Service
	graph *core.Graph // nil on a hand-lowered rig
	dev   *ssd.Device
	qp    *nvme.QueuePair
	cpu   *cpu.Core
	store *kv.Store

	// above is the shim between the KV store and its host, if any.
	above *recHost

	// Hand-lowered rigs only: the stack driving the queue pair, the
	// filesystem, and the shim recording what the filesystem sends down.
	stack fs.Backend
	fsys  *fs.FS
	below *recBackend
}

func kvFSConfig() fs.Config {
	return fs.Config{CacheBytes: 4 << 20, Journal: fs.OrderedJournal}
}

// kvConfig is the store ext-ycsb measures: small memtables and tables,
// an 8 KiB read unit, and a 1 MiB block cache over the 4 MiB page cache.
func kvConfig() kv.Config {
	return kv.Config{
		MemtableBytes: 128 << 10,
		SSTableBytes:  128 << 10,
		BlockBytes:    8 << 10,
		CacheBytes:    1 << 20,
		WALBytes:      8 << 20,
		L0Tables:      2,
		LevelRatio:    4,
	}
}

func (k rigKind) stackKind() core.StackKind {
	if k == rigMixed {
		return core.SPDK
	}
	return core.KernelAsync
}

// build constructs and preconditions a rig (and preloads the store);
// warm-up is the caller's. Every rig models the same device: the seed
// varies the inputs, not the system.
func (k rigKind) build(o rigOpts) *rig {
	if o.manual {
		return k.buildManual()
	}
	var root core.Layer = core.Stack{Kind: k.stackKind(), Queue: core.Queue{Device: ssd.ZSSD()}}
	if k == rigKV {
		root = core.FS{Config: kvFSConfig(), Child: root}
	}
	g := core.Build(core.Topology{Root: root, Precondition: precondition})
	r := &rig{eng: g.Engine(), graph: g, dev: g.Devices()[0], qp: g.QueuePairs()[0], cpu: g.CPU()}
	r.svc = workload.AsService(g)
	if k == rigKV {
		var h core.Host = g
		if o.recordHost {
			r.above = &recHost{Host: g}
			h = r.above
		}
		r.store = kv.New(h, kvConfig())
		r.store.Preload(kvKeys, kvValueBytes)
		r.svc = r.store
	}
	return r
}

// buildManual lowers the rig layer by layer exactly as core.Build does
// for a one-device topology: one legacy core, device then queue pair
// then stack, then the filesystem over the stack.
func (k rigKind) buildManual() *rig {
	eng := sim.NewEngine()
	cores := cpu.NewCoreSet(0)
	dev := ssd.NewDevice(ssd.ZSSD(), eng)
	dev.Precondition(precondition)
	qp := nvme.New(eng, dev, nvme.DefaultConfig())
	r := &rig{eng: eng, dev: dev, qp: qp, cpu: cores.Core(0)}
	var sp *spdk.Stack
	if k.stackKind() == core.SPDK {
		sp = spdk.NewStackOn(eng, qp, cores.Proc(0), spdk.DefaultCosts())
		r.stack = sp
	} else {
		r.stack = kernel.NewAsyncStackOn(eng, qp, cores.Proc(0), kernel.DefaultCosts())
	}
	r.svc = workload.AsService(&stackHost{stack: r.stack, spdk: sp, eng: eng, bytes: dev.ExportedBytes()})
	if k == rigKV {
		r.below = &recBackend{Backend: r.stack, eng: eng}
		r.fsys = fs.New(eng, r.cpu, r.below, dev.ExportedBytes(), false, kvFSConfig())
		r.store = kv.New(&fsHost{fs: r.fsys, eng: eng}, kvConfig())
		r.store.Preload(kvKeys, kvValueBytes)
		r.svc = r.store
	}
	return r
}

// stackHost is the core.Host view of a hand-lowered stack, so the load
// engines can warm it up the way they warm a graph.
type stackHost struct {
	stack fs.Backend
	spdk  *spdk.Stack
	eng   *sim.Engine
	bytes int64
}

func (h *stackHost) Submit(write bool, off int64, n int, done func()) {
	h.stack.Submit(write, off, n, done)
}
func (h *stackHost) Engine() *sim.Engine  { return h.eng }
func (h *stackHost) ExportedBytes() int64 { return h.bytes }
func (h *stackHost) Serial() bool         { return false }
func (h *stackHost) Sync(done func())     { h.stack.Flush(done) }
func (h *stackHost) Finalize() {
	if h.spdk != nil {
		h.spdk.Finalize(h.eng.Now())
	}
}

// fsHost is the core.Host view of a hand-lowered filesystem: the host
// the KV store is built over.
type fsHost struct {
	fs  *fs.FS
	eng *sim.Engine
}

func (h *fsHost) Submit(write bool, off int64, n int, done func()) {
	h.fs.Submit(write, off, n, done)
}
func (h *fsHost) Engine() *sim.Engine  { return h.eng }
func (h *fsHost) ExportedBytes() int64 { return h.fs.ExportedBytes() }
func (h *fsHost) Serial() bool         { return false }
func (h *fsHost) Sync(done func())     { h.fs.Sync(done) }
func (h *fsHost) Finalize()            {}

// counters is a snapshot of every model counter the benchmark reads.
type counters struct {
	Now       sim.Time
	Dev       ssd.Stats
	Wear      ssd.WearReport
	Submitted uint64
	MSIs      uint64
	CPUBusy   sim.Time
	FS        fs.Stats
	KV        kv.Stats
}

func (r *rig) counters() counters {
	c := counters{
		Now:       r.eng.Now(),
		Dev:       r.dev.Stats(),
		Wear:      r.dev.WearReport(),
		Submitted: r.qp.Submitted,
		MSIs:      r.qp.MSIs,
		CPUBusy:   r.cpu.BusyTime(),
	}
	switch {
	case r.fsys != nil:
		c.FS = r.fsys.Stats()
	case r.graph != nil && len(r.graph.FSStats()) > 0:
		c.FS = r.graph.FSStats()[0]
	}
	if r.store != nil {
		c.KV = r.store.Stats()
	}
	return c
}

// setup builds and warms a rig sc.setups times and keeps the last one;
// it returns the host seconds each set-up took. The warm-up draws from
// its own stream, mix(seed, -1); the measured load draws from mix(seed, 0).
func (w *engineWorkload) setup(seed uint64, sc scale, o rigOpts) (*rig, []float64) {
	var r *rig
	var took []float64
	for i := 0; i < sc.setups; i++ {
		r = nil
		runtime.GC()
		t := time.Now()
		r = w.kind.build(o)
		if sc.warmupOps > 0 {
			w.load(r.svc, mix(seed, -1), sc.warmupOps)
		}
		took = append(took, time.Since(t).Seconds())
	}
	return r, took
}

// checkLoad applies the engine-level correctness rules to a load of n
// ops and returns the ops that failed (dropped or never completed).
func checkLoad(rep *report, b loadOut, n int) uint64 {
	if b.open {
		rep.check(b.offered == uint64(n), "open loop offered %d of %d arrivals", b.offered, n)
		rep.check(b.completed+b.dropped == b.offered, "open loop completed %d + dropped %d != offered %d",
			b.completed, b.dropped, b.offered)
		return b.offered - b.completed
	}
	rep.check(b.completed == uint64(n), "closed loop completed %d of %d ops", b.completed, n)
	return uint64(n) - b.completed
}

// batchClock stamps the host clock every `every` operations the load
// engine issues, splitting one continuous load into timed batches.
type batchClock struct {
	workload.Service
	every, left int
	stamps      []time.Time
}

func newBatchClock(svc workload.Service, every, ops int) *batchClock {
	return &batchClock{Service: svc, every: every, left: every, stamps: make([]time.Time, 0, ops/every+1)}
}

func (c *batchClock) Issue(write bool, pos int64, size int, done func()) {
	if c.left--; c.left == 0 {
		c.left = c.every
		c.stamps = append(c.stamps, time.Now())
	}
	c.Service.Issue(write, pos, size, done)
}

// perOp returns each batch's host microseconds per op, the first batch
// timed from start.
func (c *batchClock) perOp(start time.Time) []float64 {
	out := make([]float64, len(c.stamps))
	for i, t := range c.stamps {
		out[i] = float64(t.Sub(start).Nanoseconds()) / 1e3 / float64(c.every)
		start = t
	}
	return out
}

// run executes one untraced run: set-up, then the measured load,
// reporting the end-to-end metrics.
func (w *engineWorkload) run(seed uint64, sc scale) *report {
	rep := newReport()
	r, setups := w.setup(seed, sc, rigOpts{})
	clk := newBatchClock(r.svc, sc.batchOps, sc.ops)
	runtime.GC()
	before := r.counters()
	clock := startClock()
	out := w.load(clk, mix(seed, 0), sc.ops)
	elapsed, mallocs := clock.stop()
	after := r.counters()
	heap := liveHeapMB()
	runtime.KeepAlive(r)

	rep.Attempted = int64(sc.ops)
	rep.Failed = int64(checkLoad(rep, out, sc.ops))
	w.checkCounters(rep, before, after, out.completed)
	rep.Digest = digest(before, after, out.res.All.Summarize())
	perOp := clk.perOp(clock.t0)
	rep.set(endToEnd, "ops_per_s", float64(out.completed)/elapsed.Seconds())
	rep.set(endToEnd, "host_us_per_op_p50", percentile(perOp, 50))
	rep.set(endToEnd, "host_us_per_op_p90", percentile(perOp, 90))
	rep.set(endToEnd, "setup_s", median(setups))
	rep.set(endToEnd, "allocs_per_op", float64(mallocs)/float64(out.completed))
	rep.set(endToEnd, "live_heap_mb", heap)
	return rep
}

// checkCounters reconciles the model's own counters with the operations
// the engine completed: every block op reaches the device exactly once,
// and every KV op is a get or a put.
func (w *engineWorkload) checkCounters(rep *report, before, after counters, completed uint64) {
	if w.kind == rigKV {
		ops := (after.KV.Gets + after.KV.Puts) - (before.KV.Gets + before.KV.Puts)
		rep.check(ops == completed, "kv gets+puts %d != kv ops completed %d", ops, completed)
		return
	}
	ops := (after.Dev.HostReads + after.Dev.HostWrites) - (before.Dev.HostReads + before.Dev.HostWrites)
	rep.check(ops == completed, "device host reads+writes %d != block ops completed %d", ops, completed)
}

// region confines block I/O to the preconditioned span, aligned down to
// 1 MiB, so reads always touch mapped media.
func region(svc workload.Service) int64 {
	return int64(precondition*float64(svc.Ops())) / (1 << 20) * (1 << 20)
}

var engineWorkloads = []*engineWorkload{
	{
		name:      "read-qd1",
		opsPerS:   1.8e6,
		warmupOps: 100_000,
		setups:    5,
		kind:      rigReadQD1,
		load: func(svc workload.Service, seed uint64, n int) loadOut {
			res := workload.RunService(svc, workload.Job{
				Spec: workload.Spec{Pattern: workload.RandRead, BlockSize: 4096,
					TotalIOs: n, Region: region(svc), Seed: seed},
				QueueDepth: 1,
			})
			return loadOut{completed: res.IOs, res: res}
		},
	},
	{
		name:      "mixed-gc-open",
		opsPerS:   0.5e6,
		warmupOps: 1_000_000,
		setups:    3,
		kind:      rigMixed,
		load: func(svc workload.Service, seed uint64, n int) loadOut {
			res := workload.RunOpenService(svc, workload.OpenJob{
				Spec: workload.Spec{Pattern: workload.RandRW, WriteFraction: 0.3, BlockSize: 4096,
					TotalIOs: n, Region: region(svc), Seed: seed},
				Arrival: workload.Arrival{Kind: workload.Poisson, Rate: mixedRate},
			})
			return loadOut{offered: res.Offered, completed: res.IOs, dropped: res.Dropped,
				open: true, res: &res.Result}
		},
	},
	{
		name:      "kv-ycsb-b",
		opsPerS:   0.7e6,
		warmupOps: 300_000,
		setups:    3,
		kind:      rigKV,
		load: func(svc workload.Service, seed uint64, n int) loadOut {
			res := workload.RunService(svc, workload.Job{
				Spec: workload.Spec{Pattern: workload.RandRW, WriteFraction: 0.05, BlockSize: kvValueBytes,
					Keyspace: workload.Keyspace{Keys: kvKeys, Dist: workload.ZipfianKeys},
					TotalIOs: n, Seed: seed},
				QueueDepth: kvDepth,
			})
			return loadOut{completed: res.IOs, res: res}
		},
	},
}

func findEngineWorkload(name string) (*engineWorkload, error) {
	for _, w := range engineWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
