package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// runSteady runs every workload n times, alternating between them with a
// fresh seed per pass, and prints each end-to-end metric's median,
// quartiles and spread (interquartile distance over the median). The
// bounds in BENCHMARK.json are set from this output.
func runSteady(n int, seconds float64, seed int64, procs int) error {
	if env := os.Getenv("GOMAXPROCS"); env != "" {
		if v, err := strconv.Atoi(env); err != nil || v > runtime.NumCPU() {
			return fmt.Errorf("GOMAXPROCS=%s exceeds nproc %d", env, runtime.NumCPU())
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	gmp := "per workload (fleet-uplink 2, osn-trigger 2, geo-multicast 1, at most nproc)"
	if procs > 0 {
		gmp = strconv.Itoa(procs)
	}
	fmt.Printf("host: cpu %q, nproc %d, GOMAXPROCS %s, %s, commit %s\n",
		cpuModel(), runtime.NumCPU(), gmp, runtime.Version(), commit())
	fmt.Printf("runs: %d per workload, %.0f s each, seeds %d..%d\n", n, seconds, seed, seed+int64(n)-1)

	values := map[string]map[string][]float64{}
	units := map[string]string{}
	failed := map[string][]string{}
	var runErrs []string
	for i := 0; i < n; i++ {
		for _, w := range workloadNames {
			s := seed + int64(i)
			var out bytes.Buffer
			cmd := exec.Command(exe, "--workload", w, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0",
				"--gomaxprocs", strconv.Itoa(procs))
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w, s, err)
				runErrs = append(runErrs, fmt.Sprintf("%s seed %d", w, s))
				continue
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			for _, l := range lines[:len(lines)-1] {
				fmt.Fprintln(os.Stderr, l)
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: result: %w", w, s, err)
			}
			failed[w] = append(failed[w], fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w][name] = append(values[w][name], m.Value)
				units[name] = m.Unit
			}
			fmt.Fprintf(os.Stderr, "steady: %s seed %d done\n", w, s)
		}
	}
	for _, w := range workloadNames {
		fmt.Printf("\n%s (failed/attempted per run: %s)\n", w, strings.Join(failed[w], " "))
		fmt.Printf("  %-22s %12s %12s %12s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "unit")
		names := make([]string, 0, len(values[w]))
		for name := range values[w] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := append([]float64(nil), values[w][name]...)
			sort.Float64s(v)
			med := quantile(v, 0.5)
			q1, q3 := pyQuartiles(v)
			fmt.Printf("  %-22s %12.4f %12.4f %12.4f %8.4f  %s\n", name, q1, med, q3, (q3-q1)/med, units[name])
		}
	}
	if len(runErrs) > 0 {
		return fmt.Errorf("%d runs failed: %s", len(runErrs), strings.Join(runErrs, ", "))
	}
	return nil
}

// pyQuartiles returns the first and third quartiles of sorted data the way
// Python's statistics.quantiles(data, n=4) computes them (exclusive
// method), which is how run-to-run spread is judged.
func pyQuartiles(sorted []float64) (q1, q3 float64) {
	if len(sorted) < 2 {
		return sorted[0], sorted[0]
	}
	ld := len(sorted)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

// commit reads the checkout's HEAD without running git; "unknown" outside
// a git work tree.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(line, " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown"
}
