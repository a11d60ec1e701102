package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/orchestrator"
)

// sweepWorkers is the shard pool size: one worker per vCPU of the
// reference host.
const sweepWorkers = 2

// sweep is the registry planned outside-in: each experiment's Plan, its
// shards as orchestrator jobs keyed the way experiments.RunAll keys
// them, and host-time slots for every shard and every merge.
type sweep struct {
	exps   []experiments.Experiment
	plans  []*experiments.Plan
	starts []int
	jobs   []orchestrator.Job
	shard  []time.Duration
	merge  []time.Duration
}

// planSweep plans the given experiments (the whole registry for nil).
func planSweep(o experiments.Options, ids []string) (*sweep, error) {
	s := &sweep{}
	if ids == nil {
		s.exps = experiments.All()
	} else {
		for _, id := range ids {
			e, ok := experiments.ByID(id)
			if !ok {
				return nil, fmt.Errorf("unknown experiment %q", id)
			}
			s.exps = append(s.exps, e)
		}
	}
	for _, e := range s.exps {
		p := e.Plan(o)
		s.plans = append(s.plans, p)
		s.starts = append(s.starts, len(s.jobs))
		for _, sh := range p.Shards {
			s.jobs = append(s.jobs, orchestrator.Job{Key: e.ID + "/" + sh.Key, Run: sh.Run})
		}
	}
	s.shard = make([]time.Duration, len(s.jobs))
	s.merge = make([]time.Duration, len(s.exps))
	for i := range s.jobs {
		run := s.jobs[i].Run
		s.jobs[i].Run = func(seed uint64) any {
			t := time.Now()
			out := run(seed)
			s.shard[i] = time.Since(t)
			return out
		}
	}
	return s, nil
}

// run executes every shard on the pool and merges each experiment's
// results into its tables.
func (s *sweep) run(root uint64, workers int) [][]*metrics.Table {
	res := orchestrator.RunProgress(root, workers, s.jobs, nil)
	out := make([][]*metrics.Table, len(s.exps))
	for i, p := range s.plans {
		t := time.Now()
		out[i] = p.Merge(res[s.starts[i] : s.starts[i]+len(p.Shards)])
		s.merge[i] = time.Since(t)
	}
	return out
}

// render prints tables the way ullsim prints them.
func render(tables []*metrics.Table) ([]byte, error) {
	var b bytes.Buffer
	for _, t := range tables {
		if err := t.Render(&b); err != nil {
			return nil, err
		}
		b.WriteByte('\n')
	}
	return b.Bytes(), nil
}

// tableProblems applies the registry smoke test's completeness rules:
// at least one table, each with an id, columns and rows, and every row
// as wide as the header.
func tableProblems(id string, tables []*metrics.Table) []string {
	var out []string
	if len(tables) == 0 {
		out = append(out, id+": no tables")
	}
	for _, t := range tables {
		if t.ID == "" || len(t.Columns) == 0 || len(t.Rows) == 0 {
			out = append(out, fmt.Sprintf("%s/%q: empty table", id, t.ID))
		}
		for i, row := range t.Rows {
			if len(row) != len(t.Columns) {
				out = append(out, fmt.Sprintf("%s/%s: row %d has %d cells for %d columns", id, t.ID, i, len(row), len(t.Columns)))
			}
		}
	}
	return out
}

// sweepOptions runs the registry at quick scale from the given root seed.
func sweepOptions(seed uint64) experiments.Options {
	return experiments.Options{Quick: true, Seed: seed, SeedSet: true, Parallel: sweepWorkers}
}

// sweepSetups is how many times a run plans the registry; setup_s is
// the median. Planning takes a fraction of a millisecond, so it takes
// many repetitions for the median to settle.
const sweepSetups = 25

// sweepSeconds is the nominal host time of one quick-scale registry
// sweep on the 2-vCPU reference host; a run of S seconds measures
// max(1, S/sweepSeconds) whole sweeps.
const sweepSeconds = 12

// runSweep measures the given number of whole sweeps of the registry
// (ids nil) or of some experiments, and reports the end-to-end metrics
// or, traced, the orchestrator and per-experiment metrics.
func runSweep(seed uint64, sweeps int, ids []string, traced bool) (*report, error) {
	rep := newReport()
	var s *sweep
	var setups []float64
	for i := 0; i < sweepSetups; i++ {
		s = nil
		runtime.GC()
		t := time.Now()
		var err error
		if s, err = planSweep(sweepOptions(seed), ids); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	runtime.GC()
	var shards []float64
	var wall time.Duration
	perExp := make([]time.Duration, len(s.exps))
	clock := startClock()
	for n := 1; n <= sweeps; n++ {
		t := time.Now()
		out := s.run(seed, sweepWorkers)
		wall += time.Since(t)
		rep.Attempted += int64(len(s.jobs))
		for i, e := range s.exps {
			if p := tableProblems(e.ID, out[i]); len(p) > 0 {
				rep.Correct = false
				rep.Problems = append(rep.Problems, p...)
				rep.Failed += int64(len(s.plans[i].Shards))
			}
			if n == 1 {
				b, err := render(out[i])
				if err != nil {
					return nil, err
				}
				rep.Digest = digest(rep.Digest, b)
			}
			perExp[i] += s.merge[i]
			for _, d := range s.shard[s.starts[i] : s.starts[i]+len(s.plans[i].Shards)] {
				perExp[i] += d
				shards = append(shards, float64(d.Nanoseconds())/1e3)
			}
		}
	}
	_, mallocs := clock.stop()
	heap := liveHeapMB()
	runtime.KeepAlive(s)

	ops := float64(rep.Attempted)
	if !traced {
		rep.set(endToEnd, "ops_per_s", ops/wall.Seconds())
		rep.set(endToEnd, "host_us_per_op_p50", percentile(shards, 50))
		rep.set(endToEnd, "host_us_per_op_p90", percentile(shards, 90))
		rep.set(endToEnd, "setup_s", median(setups))
		rep.set(endToEnd, "allocs_per_op", float64(mallocs)/ops)
		rep.set(endToEnd, "live_heap_mb", heap)
		return rep, nil
	}
	defs := perLayerDefs()
	for _, d := range defs {
		rep.set(defs, d.Name, 0)
	}
	var busy float64
	for _, us := range shards {
		busy += us / 1e6
	}
	rep.set(defs, "orchestrator.shard_s_p50", percentile(shards, 50)/1e6)
	rep.set(defs, "orchestrator.shard_s_p90", percentile(shards, 90)/1e6)
	rep.set(defs, "orchestrator.busy_frac", busy/(sweepWorkers*wall.Seconds()))
	for i, e := range s.exps {
		rep.set(defs, "experiments."+e.ID+".host_s", perExp[i].Seconds()/float64(sweeps))
	}
	return rep, nil
}
