package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specFile is the benchmark's contract, at the root of the checkout
// the command runs from: metric names, units and regression bounds
// live there and nowhere else.
const specFile = "BENCHMARK.json"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// list returns the metrics a run with the given trace mode reports.
func (s *spec) list(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// reported is one metric as printed on the result line.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report pairs measured values with the spec's list: every listed
// metric must have been measured, and nothing else may be reported.
func report(list []metricSpec, values map[string]float64) (map[string]reported, error) {
	out := make(map[string]reported, len(list))
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is listed in %s but was not measured", m.Name, specFile)
		}
		if !finite(v) {
			return nil, fmt.Errorf("metric %s = %v is not a finite number", m.Name, v)
		}
		out[m.Name] = reported{v, m.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not listed in %s", name, specFile)
		}
	}
	return out, nil
}
