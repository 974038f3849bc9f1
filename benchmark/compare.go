package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// -compare is the tool behind the repeatability criterion and behind
// every later parent-versus-change claim. It runs two sets of -repeat
// untraced runs per workload — set A with this build, set B with the
// build named by -against (this build again when empty, which shows
// what two sets of the same commit look like) — as pairs with the same
// seed, alternating which side goes first. For every (end-to-end
// metric, workload) it prints each set's median and quartiles, how
// much worse B's median is as a share of A's, the bound, and:
//
//	ok          B is not worse than A by more than the bound
//	regressed   it is, and A's own quartile spread is inside the bound
//	unresolved  A's quartile spread exceeds the bound: the runs cannot tell
//
// The exit code is 1 if any pair regressed or any run failed.

// verdict judges one (metric, workload) pair. spread is A's
// interquartile range over its median; worse is how far B's median is
// on the wrong side of A's, as a share of A's.
func verdict(m metricSpec, a, b []float64) (spread, worse float64, word string) {
	medA, medB := median(a), median(b)
	q1, q3 := quartiles(a)
	spread = (q3 - q1) / medA
	worse = (medB - medA) / medA
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread > m.Bound:
		word = "unresolved"
	case worse > m.Bound:
		word = "regressed"
	default:
		word = "ok"
	}
	return spread, worse, word
}

// runOnce starts one benchmark process, waits for it, and parses the
// last line of its standard output.
func runOnce(bin, workload string, seed uint64, seconds float64) (result, error) {
	cmd := exec.Command(bin, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0",
		"--out", fmt.Sprintf("%s/compare-%s.json", buildDir, workload))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s %s seed %d: %w", bin, workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, fmt.Errorf("%s %s seed %d: result line: %w", bin, workload, seed, err)
	}
	return r, nil
}

func runCompare(sp *spec, only string, seed uint64, seconds float64, repeat int, against string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	bins := [2]string{self, against}
	if against == "" {
		bins[1] = self
	}
	if repeat < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -repeat must be at least 2 for quartiles")
		return 2
	}
	fmt.Printf("A = %s\nB = %s\n%d runs per set and workload, %g s each\n\n", bins[0], bins[1], repeat, seconds)
	fmt.Printf("%-14s %-20s %34s %34s %8s %8s %6s  %s\n", "workload", "metric",
		"A median [q1, q3]", "B median [q1, q3]", "spreadA", "B worse", "bound", "verdict")
	status := 0
	tally := map[string]int{}
	for _, w := range sp.Workloads {
		if only != "" && only != w.Name {
			continue
		}
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < repeat; i++ {
			for k := 0; k < 2; k++ {
				side := (i + k) % 2 // alternate which side runs first
				r, err := runOnce(bins[side], w.Name, seed+uint64(i), seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				if !r.Correct {
					status = 1
				}
				for name, v := range r.Metrics {
					sets[side][name] = append(sets[side][name], v.Value)
				}
			}
		}
		for _, m := range sp.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			spread, worse, word := verdict(m, a, b)
			tally[word]++
			if word == "regressed" {
				status = 1
			}
			show := func(xs []float64) string {
				q1, q3 := quartiles(xs)
				return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
			}
			fmt.Printf("%-14s %-20s %34s %34s %8.3f %+8.3f %6.2f  %s\n",
				w.Name, m.Name, show(a), show(b), spread, worse, m.Bound, word)
		}
	}
	fmt.Printf("\nok %d, unresolved %d, regressed %d; spreads and differences are shares of A's median\n",
		tally["ok"], tally["unresolved"], tally["regressed"])
	return status
}
