// Command benchmark is the repository's benchmark of record: three
// scheduler families on five workloads, end to end and per layer,
// measured from outside the program. See README.md.
//
// One run measures one workload:
//
//	benchmark --workload loops-fine --seed 7 --seconds 18 --trace 0
//
// prints every metric by name with its unit and regression bound, and
// as the last line of standard output one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics of an untraced run, --trace 1 the per-layer
// metrics of a run that records spans. -compare runs two sets of
// -repeat runs and judges every (metric, workload) pair against its
// bound; see compare.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// buildDir holds everything the benchmark writes: the binary run.sh
// builds, detail files and span logs. It is git-ignored.
const buildDir = ".bench_build"

// detail is the per-run file: everything behind the result line. It
// ends with "claim": null — the benchmark measures, it claims no gain.
type detail struct {
	Workload  string              `json:"workload"`
	Seed      uint64              `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Traced    bool                `json:"traced"`
	Env       environment         `json:"environment"`
	Metrics   map[string]reported `json:"metrics"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Errors    []string            `json:"errors,omitempty"`
	More      map[string]any      `json:"detail"`
	Spans     string              `json:"spans_file,omitempty"`
	Claim     *string             `json:"claim"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; with -compare, empty means all")
		seed    = flag.Uint64("seed", 1, "seed of the inputs, the arrival schedule and the request draw")
		seconds = flag.Float64("seconds", 0, "measured seconds (default: run_seconds of "+specFile+")")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, with spans")
		out     = flag.String("out", "", "detail file (default "+buildDir+"/<workload>-trace<n>.json)")
		compare = flag.Bool("compare", false, "run two sets of -repeat runs and judge each metric against its bound")
		repeat  = flag.Int("repeat", 10, "with -compare: runs per set and workload")
		against = flag.String("against", "", "with -compare: another build of this benchmark for the second set (default: this one)")
	)
	flag.Parse()
	sp, err := readSpec(specFile)
	if err != nil {
		fatal(2, err)
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *compare {
		os.Exit(runCompare(sp, *name, *seed, *seconds, *repeat, *against))
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(2, err)
	}
	if *trace != 0 && *trace != 1 {
		fatal(2, fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	traced := *trace == 1

	var res *runResult
	if traced {
		res, err = perLayer(w, *seed, *seconds)
	} else {
		res, err = endToEnd(w, *seed, *seconds, setupRepeats)
	}
	if err != nil {
		fatal(1, err)
	}
	metrics, err := report(sp.list(traced), res.metrics)
	if err != nil {
		fatal(1, err)
	}

	if *out == "" {
		*out = filepath.Join(buildDir, fmt.Sprintf("%s-trace%d.json", w.name, *trace))
	}
	d := detail{Workload: w.name, Seed: *seed, Seconds: *seconds, Traced: traced,
		Env: readEnvironment(), Metrics: metrics, Attempted: res.attempted, Failed: res.failed,
		Errors: res.errors, More: res.detail}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		fatal(1, err)
	}
	if res.log != nil {
		d.Spans = *out + ".spans.jsonl"
		if err := res.log.write(d.Spans); err != nil {
			fatal(1, err)
		}
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		fatal(1, err)
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		fatal(1, err)
	}

	printTable(w.name, sp.list(traced), metrics)
	for _, e := range res.errors {
		fmt.Fprintln(os.Stderr, "benchmark: failed operation:", e)
	}
	line, err := json.Marshal(result{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fatal(1, err)
	}
	fmt.Println(string(line))
	if res.failed > 0 {
		os.Exit(1)
	}
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(code)
}

// printTable prints every metric by name, with unit and bound.
func printTable(workload string, list []metricSpec, metrics map[string]reported) {
	list = append([]metricSpec(nil), list...)
	sort.Slice(list, func(i, j int) bool { return list[i].Name < list[j].Name })
	fmt.Printf("%-44s %16s %-6s %-7s %s\n", "metric ("+workload+")", "value", "unit", "better", "bound")
	for _, m := range list {
		bound := "-"
		if m.Bound > 0 {
			bound = fmt.Sprintf("%.2f", m.Bound)
		}
		fmt.Printf("%-44s %16.4f %-6s %-7s %s\n", m.Name, metrics[m.Name].Value, m.Unit, m.Better, bound)
	}
}
