package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// record is one run as -record appends it: the result line plus what
// identifies the run.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Digest   string `json:"model_digest"`
	Result   result `json:"result"`
}

// appendRecord adds one run to a JSON-lines record file.
func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "%s\n", b); err != nil {
		f.Close()
		return fmt.Errorf("append record to %s: %w", path, err)
	}
	return f.Close()
}

// readRecords loads the untraced runs of a record file, grouped by
// workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// spread summarises one side of a comparison.
type spread struct {
	q1, med, q3 float64
	n           int
}

func spreadOf(runs []record, name string) (spread, bool) {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Result.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	if len(xs) < 2 {
		return spread{}, false
	}
	q1, med, q3 := quartiles(xs)
	return spread{q1, med, q3, len(xs)}, true
}

// relIQR is the quartile distance as a share of the median.
func (s spread) relIQR() float64 { return ratio(s.q3-s.q1, s.med) }

// verdict judges B against A for one metric: unresolved when either
// side's quartile spread exceeds the bound, otherwise worse or better
// when the medians differ by more than the bound, within when not.
func verdict(d metricDef, a, b spread) string {
	if a.relIQR() > d.Bound || b.relIQR() > d.Bound {
		return "unresolved"
	}
	worse := ratio(b.med-a.med, a.med)
	if d.Better == higher {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return "worse"
	case -worse > d.Bound:
		return "better"
	}
	return "within"
}

// compare prints, for every workload and end-to-end metric, both
// sides' quartiles and the verdict. It reports whether every pair is
// within its bound or better.
func compare(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-14s %-19s %38s %38s %7s  %s\n", "workload", "metric",
		"A q1 / median / q3", "B q1 / median / q3", "bound", "verdict")
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			sa, okA := spreadOf(a[name], d.Name)
			sb, okB := spreadOf(b[name], d.Name)
			if !okA || !okB {
				fmt.Fprintf(w, "%-14s %-19s needs at least two untraced runs on each side\n", name, d.Name)
				ok = false
				continue
			}
			v := verdict(d, sa, sb)
			ok = ok && (v == "within" || v == "better")
			fmt.Fprintf(w, "%-14s %-19s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %6.0f%%  %s (n=%d/%d)\n",
				name, d.Name, sa.q1, sa.med, sa.q3, sb.q1, sb.med, sb.q3, 100*d.Bound, v, sa.n, sb.n)
		}
	}
	return ok, nil
}
