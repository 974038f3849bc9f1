// Command threadvet checks this module's code against the runtimes'
// concurrency contracts: the invariants that go vet and the race
// detector cannot see but that the paper's results (and PRs 1-2's
// runtime changes) depend on.
//
// Usage:
//
//	threadvet [-json] [-list] [-fix] [-sarif file] [packages]
//
// With no package patterns, ./... is checked. Analyzers:
//
//	joinleak     - futures.Async/NewThread handles never joined
//	ctxdrop      - plain call severing an in-scope context from a Ctx API
//	lockspawn    - task submission while a sync.(RW)Mutex is held
//	atomicmix    - struct fields accessed both atomically and plainly
//	grainconst   - constant grain/cutoff that decays to task-per-element
//	lockorder    - mutex acquisition-order cycles, including across spawn edges
//	blockingtask - pool-executed tasks that transitively block a worker
//	racecapture  - unsynchronized writes to captures in parallel-loop bodies
//	handlereuse  - joins of joined handles; calls on closed pools/teams
//
// A finding is suppressed by a directive on the flagged line (as a
// trailing comment) or on the line immediately above (standalone):
//
//	//threadvet:ignore <analyzer> <reason>
//
// The reason is mandatory and the directive silences exactly the
// named analyzer on exactly one line. -json emits one JSON object
// per diagnostic ({"file","line","col","analyzer","message"}) on
// stdout for CI annotation tooling. -sarif writes a SARIF 2.1.0 log
// to the given file ("-" for stdout) — always, even when there are
// no findings, so CI can upload unconditionally. -fix applies each
// finding's suggested fix (files are rewritten atomically; applying
// fixes twice is a no-op) and reports the findings no fix exists
// for. Exit status: 0 clean (or all findings fixed), 1 findings
// remain, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"threading/internal/analysis/driver"
)

func main() {
	var (
		jsonOut  = flag.Bool("json", false, "emit newline-delimited JSON diagnostics on stdout")
		list     = flag.Bool("list", false, "list analyzers and exit")
		fix      = flag.Bool("fix", false, "apply suggested fixes and report the findings that remain")
		sarifOut = flag.String("sarif", "", "write a SARIF 2.1.0 log to `file` (\"-\" for stdout)")
	)
	flag.Parse()

	if *list {
		for _, a := range driver.All {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	findings, err := driver.Run(".", patterns, driver.All)
	if err != nil {
		fmt.Fprintf(os.Stderr, "threadvet: %v\n", err)
		os.Exit(2)
	}

	if *sarifOut != "" {
		if err := writeSARIF(*sarifOut, findings); err != nil {
			fmt.Fprintf(os.Stderr, "threadvet: %v\n", err)
			os.Exit(2)
		}
	}

	if *fix {
		applied, unfixed, err := driver.ApplyFixes(findings)
		if err != nil {
			fmt.Fprintf(os.Stderr, "threadvet: %v\n", err)
			os.Exit(2)
		}
		for _, f := range applied {
			fmt.Fprintf(os.Stderr, "fixed: %s (%s)\n", f, f.Fix.Message)
		}
		findings = unfixed
	}

	if len(findings) == 0 {
		return
	}
	if *jsonOut {
		if err := driver.WriteJSON(os.Stdout, findings); err != nil {
			fmt.Fprintf(os.Stderr, "threadvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		driver.WriteText(os.Stderr, findings)
	}
	os.Exit(1)
}

// writeSARIF writes the log to path, with "-" meaning stdout. An
// empty findings slice still yields a complete, valid log.
func writeSARIF(path string, findings []driver.Finding) error {
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return driver.WriteSARIF(w, findings, driver.All)
}
