package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/experiments"
)

// tiny is a smoke-test scale: a few small batches, a short warm-up.
var tiny = scale{ops: 600, batchOps: 200, warmupOps: 1000, setups: 2, traceOps: 600}

// smokeIDs is a quick slice of the registry for the sweep smoke test.
var smokeIDs = []string{"tab1", "ext-lightq", "ext-pollopt"}

// benchmarkJSON is the repository's benchmark definition.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json to the metrics and
// workloads the program defines.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v\nprogram %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayerDefs()) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's per-layer metrics")
	}
}

// smokeRun runs one workload at smoke scale.
func smokeRun(t *testing.T, name string, seed uint64, traced bool) *report {
	t.Helper()
	if name == "sweep-all" {
		rep, err := runSweep(seed, 1, smokeIDs, traced)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	w, err := findEngineWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	if traced {
		return w.traced(seed, tiny)
	}
	return w.run(seed, tiny)
}

// TestSmoke runs every workload untraced and traced at tiny scale: every
// metric BENCHMARK.json names is emitted with its unit, every check
// passes, and the model digest follows the seed.
func TestSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var first string
			for _, traced := range []bool{false, true} {
				defs := bj.EndToEnd
				if traced {
					defs = bj.PerLayer
				}
				rep := smokeRun(t, name, 1, traced)
				if !rep.Correct {
					t.Errorf("traced=%v: checks failed: %v", traced, rep.Problems)
				}
				if rep.Attempted < 1 || rep.Failed != 0 {
					t.Errorf("traced=%v: attempted %d failed %d", traced, rep.Attempted, rep.Failed)
				}
				for _, d := range defs {
					m, ok := rep.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("traced=%v: metric %s emitted=%v unit %q, want %q", traced, d.Name, ok, m.Unit, d.Unit)
					}
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics emitted, BENCHMARK.json names %d", traced, len(rep.Metrics), len(defs))
				}
				if !traced {
					first = rep.Digest
					for _, d := range defs {
						if rep.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, rep.Metrics[d.Name].Value)
						}
					}
				}
			}
			again, other := smokeRun(t, name, 1, false), smokeRun(t, name, 2, false)
			if first == "" || again.Digest != first {
				t.Errorf("same seed, digests %q and %q", first, again.Digest)
			}
			if other.Digest == first {
				t.Errorf("seeds 1 and 2 share digest %q", first)
			}
		})
	}
}

// TestSweepMatchesRunAll: the outside-in sweep runner simulates exactly
// what experiments.RunAll does, serially and on a pool.
func TestSweepMatchesRunAll(t *testing.T) {
	const seed = 7
	ids := []string{"tab1", "fig4a", "ext-lightq"}
	for _, workers := range []int{1, 2} {
		o := experiments.Options{Quick: true, Seed: seed, SeedSet: true, Parallel: workers}
		want, err := experiments.RunAll(o, ids...)
		if err != nil {
			t.Fatal(err)
		}
		s, err := planSweep(o, ids)
		if err != nil {
			t.Fatal(err)
		}
		got := s.run(seed, workers)
		for i, r := range want {
			a, err := render(r.Tables)
			if err != nil {
				t.Fatal(err)
			}
			b, err := render(got[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("workers=%d %s: sweep runner tables differ from RunAll\n--- RunAll\n%s\n--- sweep\n%s",
					workers, r.Experiment.ID, a, b)
			}
		}
	}
}

// TestLadderReconciles: per-layer self costs telescope exactly to the
// top level, and every shim's boundary count equals the model counter it
// shadows (checked inside the ladder; a mismatch fails the report).
func TestLadderReconciles(t *testing.T) {
	for _, w := range engineWorkloads {
		t.Run(w.name, func(t *testing.T) {
			rep := newReport()
			rungs, top := w.ladder(rep, 3, tiny)
			if !rep.Correct {
				t.Fatalf("ladder checks failed: %v", rep.Problems)
			}
			if top.ops == 0 || len(rungs) < 5 {
				t.Fatalf("ladder ran %d ops over %d levels", top.ops, len(rungs))
			}
			var ns, allocs int64
			for _, s := range selfCosts(rungs) {
				ns += s.ns
				allocs += s.allocs
			}
			if ns != rungs[0].ns || allocs != rungs[0].allocs {
				t.Errorf("self costs sum to %dns/%d allocs, top level is %dns/%d allocs",
					ns, allocs, rungs[0].ns, rungs[0].allocs)
			}
		})
	}
}

// TestHandLoweredRigMatchesBuild: the rigs the ladder enters below
// core.Graph simulate bit-for-bit what core.Build's graph simulates.
func TestHandLoweredRigMatchesBuild(t *testing.T) {
	for _, w := range engineWorkloads {
		t.Run(w.name, func(t *testing.T) {
			var got [2]string
			for i, o := range []rigOpts{{}, {manual: true}} {
				r := w.prepare(5, tiny, o)
				w.load(r.svc, 9, tiny.ops)
				got[i] = digest(r.counters())
			}
			if got[0] != got[1] {
				t.Errorf("core.Build rig %s, hand-lowered rig %s", got[0], got[1])
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestCompareVerdicts covers the four verdicts of -compare.
func TestCompareVerdicts(t *testing.T) {
	d := metricDef{Name: "ops_per_s", Better: higher, Bound: 0.10}
	tight := func(med float64) spread { return spread{med * 0.99, med, med * 1.01, 10} }
	for _, tc := range []struct {
		a, b spread
		want string
	}{
		{tight(100), tight(105), "within"},
		{tight(100), tight(80), "worse"},
		{tight(100), tight(120), "better"},
		{tight(100), spread{50, 100, 150, 10}, "unresolved"},
	} {
		if got := verdict(d, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%+v, %+v) = %s, want %s", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestCompareRecords drives -compare end to end on two record files.
func TestCompareRecords(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scaleBy float64) string {
		path := filepath.Join(dir, name)
		for _, w := range workloadNames {
			for i := 0; i < 4; i++ {
				rep := newReport()
				for _, d := range endToEnd {
					rep.set(endToEnd, d.Name, scaleBy*(100+float64(i)/10))
				}
				if err := appendRecord(path, record{Workload: w, Seed: uint64(i), Result: rep.result}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	a, b := write("a.jsonl", 1), write("b.jsonl", 1.001)
	var out bytes.Buffer
	ok, err := compare(&out, a, b)
	if err != nil || !ok {
		t.Fatalf("compare same-commit runs: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if ok, err := compare(&out, a, write("c.jsonl", 2)); err != nil || ok {
		t.Fatalf("compare against doubled values: ok=%v err=%v", ok, err)
	}
}
