// Command feattable prints the qualitative comparison tables of
// "Comparison of Threading Programming Models" (Salehian, Liu, Yan;
// 2017): Table I (parallelism patterns), Table II (memory-hierarchy
// abstraction and synchronization) and Table III (mutual exclusion,
// language bindings, error handling, tool support), covering OpenMP,
// Cilk Plus, TBB, OpenACC, CUDA, OpenCL, C++11 and PThreads.
//
// Usage:
//
//	feattable [-table 1,2,3] [-rank]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"threading/internal/features"
	"threading/internal/harness"
)

func main() {
	var (
		tables = flag.String("table", "", "comma-separated table numbers (1..3); empty = all")
		rank   = flag.Bool("rank", false, "also print APIs ranked by feature count")
	)
	flag.Parse()

	var nums []int
	if *tables != "" {
		for _, part := range strings.Split(*tables, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(os.Stderr, "feattable: bad table number %q\n", part)
				os.Exit(2)
			}
			nums = append(nums, n)
		}
	}
	if err := harness.FeatureReport(nums, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "feattable: %v\n", err)
		os.Exit(1)
	}
	if *rank {
		fmt.Println("APIs by number of supported features (paper: OpenMP is the most comprehensive):")
		for i, api := range features.Ranking() {
			fmt.Printf("  %d. %-9s %d features\n", i+1, api, features.FeatureCount(api))
		}
	}
}
