package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// runMeta is the machine and run metadata every result carries.
type runMeta struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Dirty      *bool   `json:"dirty"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"run_seconds"`
	Trace      bool    `json:"trace"`
	Shards     int     `json:"shards"`
	PacedRate  float64 `json:"paced_rate_sps"`
	// Instants of each trace segment (one sample per VM per instant).
	PrefixInstants int `json:"prefix_instants"`
	DrainInstants  int `json:"drain_instants"`
	PacedInstants  int `json:"paced_instants"`
}

func machineMeta() runMeta {
	m := runMeta{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	// The go command stamps the revision and dirty flag when it builds
	// inside a git work tree; a plain source checkout has neither.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				dirty := s.Value == "true"
				m.Dirty = &dirty
			}
		}
	}
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
