package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// resultsFile is what -out writes and -compare reads: every run of
// every workload, under the fingerprint of the box that produced them.
type resultsFile struct {
	Fingerprint map[string]string    `json:"fingerprint"`
	Seconds     float64              `json:"seconds"`
	Workloads   map[string][]*result `json:"workloads"`
}

func (f resultsFile) write(path string) error {
	blob, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	blob, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(blob, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// fingerprint records what a number depends on besides the code.
func fingerprint(root string, cfg config) map[string]string {
	fp := map[string]string{
		"cpu":        "unknown",
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"kernel":     "unknown",
		"commit":     "unknown",
		"seed":       fmt.Sprint(cfg.seed),
		"fsync":      "group",
		"clients":    fmt.Sprint(cfg.clients),
	}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if blob, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp["kernel"] = strings.TrimSpace(string(blob))
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if blob, err := cmd.Output(); err == nil { // not a git checkout: stays unknown
		fp["commit"] = string(bytes.TrimSpace(blob))
	}
	return fp
}

// spread is the interquartile range of the values as a share of their
// median: the run-to-run noise a bound has to be read against. Fewer
// than two values have no spread.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(sortedCopy(values))
	med := median(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// verdict judges one metric of one workload: head's median against
// base's, in the metric's own direction, against its bound.
func verdict(d metricDef, base, head []float64) (change float64, word string) {
	b, h := median(base), median(head)
	switch {
	case b == 0 && h == 0:
		change = 0
	case b == 0:
		change = 1
	default:
		change = (h - b) / b
	}
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case spread(base) > d.Bound && d.Bound > 0, spread(head) > d.Bound && d.Bound > 0:
		return change, "unresolved"
	case change > d.Bound:
		return change, "regressed"
	}
	return change, "ok"
}

// compareFiles prints, per workload and end-to-end metric, head's
// change against base and whether it stays within the metric's bound.
// It exits 1 when anything regressed.
func compareFiles(basePath, headPath string) (int, error) {
	base, err := readResults(basePath)
	if err != nil {
		return 1, err
	}
	head, err := readResults(headPath)
	if err != nil {
		return 1, err
	}
	if base.Seconds != head.Seconds {
		return 2, fmt.Errorf("%s measured %gs windows and %s %gs: runs of different lengths do not compare", basePath, base.Seconds, headPath, head.Seconds)
	}
	var keys []string
	for k := range base.Fingerprint {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if base.Fingerprint[k] != head.Fingerprint[k] {
			fmt.Printf("fingerprint %-10s base %q, head %q\n", k, base.Fingerprint[k], head.Fingerprint[k])
		}
	}
	regressed := false
	fmt.Printf("%-14s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "head", "change", "bound", "verdict")
	defs := append(append([]metricDef(nil), gated...), ungated...)
	for _, w := range workloads {
		b, h := base.Workloads[w.name], head.Workloads[w.name]
		if len(b) == 0 || len(h) == 0 {
			continue
		}
		for _, d := range defs {
			bv, hv := valuesOf(b, d.Name), valuesOf(h, d.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			change, word := verdict(d, bv, hv)
			regressed = regressed || word == "regressed"
			fmt.Printf("%-14s %-22s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n", w.name, d.Name,
				median(bv), median(hv), 100*change, 100*d.Bound, word)
		}
	}
	if regressed {
		return 1, nil
	}
	return 0, nil
}

func valuesOf(runs []*result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
