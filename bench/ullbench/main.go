// Command ullbench is the repository's end-to-end benchmark of the
// simulator's own cost. It runs four workloads that stress different
// layers — QD1 reads on libaio, an open-loop mixed load in GC steady
// state on SPDK, a YCSB-B key-value load over a journaled filesystem,
// and the whole experiment registry — and reports host-time metrics
// with probes off. A traced run (-trace 1) reports per-layer costs,
// measured from outside every layer through its public entry points.
//
// Usage:
//
//	ullbench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-record FILE]
//	ullbench -compare A.jsonl B.jsonl
//
// Without -workload, each workload runs in its own child process. The
// last line of a single-workload run is its result as JSON; the run
// exits non-zero when a correctness check fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// workloadNames lists the workloads in run order.
var workloadNames = []string{"read-qd1", "mixed-gc-open", "kv-ycsb-b", "sweep-all"}

func main() {
	name := flag.String("workload", "", "run one workload (default: all, each in its own process)")
	seed := flag.Uint64("seed", 1, "seed every input is derived from")
	seconds := flag.Int("seconds", 20, "host seconds the measured phase runs")
	trace := flag.Int("trace", 0, "1: report per-layer metrics instead of end-to-end ones")
	recordTo := flag.String("record", "", "append each run's result to this JSON-lines file")
	cmp := flag.Bool("compare", false, "compare two record files: ullbench -compare A B")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			usage("-compare needs two record files")
		}
		ok, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "ullbench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		usage("bad arguments")
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *trace, *recordTo))
	}
	runtime.GOMAXPROCS(2)
	rep, err := runWorkload(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ullbench:", err)
		os.Exit(2)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayerDefs()
	}
	if err := rep.write(os.Stdout, *name, *seed, defs); err != nil {
		fmt.Fprintln(os.Stderr, "ullbench:", err)
		os.Exit(2)
	}
	if *recordTo != "" {
		rec := record{Workload: *name, Seed: *seed, Trace: *trace == 1, Digest: rep.Digest, Result: rep.result}
		if err := appendRecord(*recordTo, rec); err != nil {
			fmt.Fprintln(os.Stderr, "ullbench:", err)
			os.Exit(2)
		}
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "ullbench:", msg)
	flag.Usage()
	os.Exit(2)
}

// runWorkload runs one workload in this process.
func runWorkload(name string, seed uint64, seconds int, traced bool) (*report, error) {
	if name == "sweep-all" {
		return runSweep(seed, max(1, seconds/sweepSeconds), nil, traced)
	}
	w, err := findEngineWorkload(name)
	if err != nil {
		return nil, err
	}
	sc := w.scaleFor(float64(seconds))
	if traced {
		return w.traced(seed, sc), nil
	}
	return w.run(seed, sc), nil
}

// runAll runs every workload in its own child process, so heap state
// and GC pacing cannot leak from one into the next, and returns the
// exit code: non-zero when any child failed.
func runAll(seed uint64, seconds, trace int, recordTo string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ullbench:", err)
		return 2
	}
	code := 0
	for _, name := range workloadNames {
		args := []string{"-workload", name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace)}
		if recordTo != "" {
			args = append(args, "-record", recordTo)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "ullbench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}
