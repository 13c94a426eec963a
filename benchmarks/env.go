package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// envStamp identifies the machine and build a result came from; -compare
// refuses to compare results whose stamps differ (the commit aside).
type envStamp struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
}

// sameMachine reports whether two results may be compared: everything but
// the commit must match.
func (e envStamp) sameMachine(o envStamp) bool {
	e.GitCommit, o.GitCommit = "", ""
	return e == o
}

func readEnv() envStamp {
	return envStamp{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the revision the go tool stamped into the binary; a
// checkout that is not a git repository has none.
func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// peakRSSMiB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// summary is a metric's value over the repetitions of one run (or, in
// -compare, over runs): the median is the reported value. Unit is filled in
// from the manifest when the metric is recorded.
type summary struct {
	Median float64 `json:"value"`
	Unit   string  `json:"unit"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns median and quartiles by linear interpolation between
// order statistics. An empty sample summarizes to zeros.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Q1, s.Median, s.Q3 = quantile(sorted, 0.25), quantile(sorted, 0.5), quantile(sorted, 0.75)
	return s
}

// exact is a summary of one exact value (a count, a seed-determined
// simulated scalar, a single calibration).
func exact(v float64) summary {
	return summary{Median: v, Q1: v, Q3: v, N: 1}
}

// quantile interpolates the q-quantile of an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// iqrShare is the interquartile range as a share of the median.
func (s summary) iqrShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// measured brackets one measured section: host time plus the allocation
// counters the end-to-end metrics divide by ops.
type measured struct {
	dur     time.Duration
	mallocs uint64
	bytes   uint64
}

func (m *measured) add(o measured) {
	m.dur += o.dur
	m.mallocs += o.mallocs
	m.bytes += o.bytes
}

// measure runs fn and returns its host time and allocation deltas.
// ReadMemStats stops the world, so it stays outside the timed interval.
func measure(fn func()) measured {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	dur := time.Since(start)
	runtime.ReadMemStats(&after)
	return measured{dur: dur, mallocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc}
}
