package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// environment is recorded in every detail file: a number means
// little without the machine it was taken on.
type environment struct {
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	CPUModel   string            `json:"cpu_model"`
	Caches     map[string]string `json:"caches"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	Commit     string            `json:"commit"`
}

func readEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		Caches:     map[string]string{},
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     gitCommit("."),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*") // no cache directory: the map stays empty
	for _, d := range dirs {
		read := func(name string) string {
			b, _ := os.ReadFile(filepath.Join(d, name)) // an unreadable attribute reads as ""
			return strings.TrimSpace(string(b))
		}
		env.Caches["L"+read("level")+" "+read("type")] = read("size")
	}
	return env
}

// gitCommit resolves HEAD by reading .git directly; the benchmark
// starts no processes. A checkout that is not a repository (the
// driver's) reports "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if hash, ok := strings.CutSuffix(line, " "+ref); ok {
				return hash
			}
		}
	}
	return "unknown"
}
