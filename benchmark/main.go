// Command benchmark is the repository's serving benchmark: it builds
// ./cmd/prefserve, runs it as child processes on loopback, drives four
// fixed workloads against it in a closed loop and checks every reply
// against the generator's ground truth. A second mode traces the same
// workloads layer by layer in process. See README.md.
//
//	go run -C benchmark . -workload all -seed 1 -out results.json
//	go run -C benchmark . -workload point_read -trace 1
//	go run -C benchmark . -compare results-a.json results-b.json
//	go run -C benchmark . -sweep -workload point_read
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// clients is the fixed closed-loop client count of the gated numbers:
// two goroutines on two keep-alive connections, no more than the cores
// of the reference box.
const clients = 2

// runSeconds is the measured window of a gated run: run_seconds in
// BENCHMARK.json, which the driver passes back as -seconds.
const runSeconds = 20

// traceFile is where a traced run writes its spans, in the repository
// root, as one JSON object: workload name -> spans.
const traceFile = "trace.json"

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		name    = flag.String("workload", "all", "workload to run: all, or one of the four names")
		seed    = flag.Int64("seed", 1, "seed of every generated dataset and request stream")
		seconds = flag.Int("seconds", runSeconds, "length of one measured window; the driver that reads BENCHMARK.json always passes its run_seconds here, and -compare refuses files of different lengths")
		traced  = flag.Int("trace", 0, "0 or 1, as the driver passes it: 1 runs the traced, per-layer mode instead of the end-to-end windows and writes every span to "+traceFile)
		out     = flag.String("out", "", "write the results, with the environment fingerprint, to this file")
		reps    = flag.Int("reps", 1, "repetitions of each workload: -compare judges a metric's spread from the repetitions in a file")
		quick   = flag.Bool("quick", false, "preset for a smoke run: 5s windows, 1s warm-up, one set-up; all four workloads within 60s")
		compare = flag.Bool("compare", false, "compare two results files given as arguments: base head")
		sweep   = flag.Bool("sweep", false, "ungated open-loop rate ladder for point_read or write_mix, written to "+sweepFile)
	)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		return 1, err
	}
	// The program starts in benchmark/; files named on the command line
	// are meant relative to the repository root.
	fromRoot := func(path string) string {
		if path == "" || filepath.IsAbs(path) {
			return path
		}
		return filepath.Join(root, path)
	}
	if *compare {
		if flag.NArg() != 2 {
			return 2, fmt.Errorf("-compare needs two results files: base head")
		}
		return compareFiles(fromRoot(flag.Arg(0)), fromRoot(flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		return 2, fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	if *seconds < 1 || *reps < 1 {
		return 2, fmt.Errorf("-seconds and -reps must be at least 1")
	}
	if *traced != 0 && *traced != 1 {
		return 2, fmt.Errorf("-trace takes 0 or 1, not %d", *traced)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := config{
		seed:    *seed,
		clients: clients,
		warmup:  2 * time.Second,
		measure: time.Duration(*seconds) * time.Second,
		setups:  7,
	}
	if *quick {
		secondsSet := false
		flag.Visit(func(f *flag.Flag) { secondsSet = secondsSet || f.Name == "seconds" })
		if secondsSet {
			return 2, fmt.Errorf("-quick fixes the window at 5s; drop -seconds")
		}
		cfg.warmup, cfg.measure, cfg.setups = time.Second, 5*time.Second, 1
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*name); ok {
		selected = []workload{w}
	} else {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}

	e, err := newEnv(root)
	if err != nil {
		return 1, err
	}
	defer e.cleanup()
	if *traced == 0 {
		if err := e.buildServer(); err != nil {
			return 1, err
		}
	}
	if *sweep {
		if len(selected) != 1 {
			return 2, fmt.Errorf("-sweep needs -workload point_read or write_mix")
		}
		return runSweep(ctx, e, selected[0].name, cfg)
	}

	file := resultsFile{Fingerprint: fingerprint(e.root, cfg), Seconds: cfg.measure.Seconds(), Workloads: map[string][]*result{}}
	spans := map[string][]span{}
	healthy := true
	var last *result
	for _, w := range selected {
		for rep := 0; rep < *reps; rep++ {
			var res *result
			if *traced == 1 {
				res, spans[w.name], err = runTrace(ctx, e, w.name, cfg)
			} else {
				res, err = w.run(ctx, e, cfg)
			}
			if err != nil {
				return 1, fmt.Errorf("%s: %w", w.name, err)
			}
			printResult(w.name, res)
			file.Workloads[w.name] = append(file.Workloads[w.name], res)
			healthy = healthy && res.Correct
			last = res
		}
	}
	if *traced == 1 {
		blob, err := json.Marshal(spans)
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(filepath.Join(root, traceFile), blob, 0o644); err != nil {
			return 1, err
		}
	}
	if *out != "" {
		if err := file.write(fromRoot(*out)); err != nil {
			return 1, err
		}
	}
	if len(selected) == 1 {
		// The last line of a single-workload run is the contract's
		// object: exactly the metrics BENCHMARK.json lists for the mode.
		defs := gated
		if *traced == 1 {
			defs = perLayer
		}
		line, err := contractLine(last, defs)
		if err != nil {
			return 1, err
		}
		fmt.Println(line)
	}
	if !healthy {
		return 1, nil
	}
	return 0, nil
}

// contractLine renders a run as the one JSON object the driver reads.
func contractLine(r *result, defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]value, len(defs))}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		line.Metrics[d.Name] = value{m.Value, d.Unit}
	}
	blob, err := json.Marshal(line)
	return string(blob), err
}

func printResult(name string, r *result) {
	fmt.Printf("== %s: attempted %d, failed %d, correct %v\n", name, r.Attempted, r.Failed, r.Correct)
	for _, n := range sortedNames(r.Metrics) {
		m := r.Metrics[n]
		fmt.Printf("%-34s %16.4f %-6s", n, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Printf(" n=%d", m.Samples)
		}
		if m.Percentile > 0 {
			fmt.Printf(" p%.4g", 100*m.Percentile)
		}
		fmt.Println()
	}
	for _, note := range r.Notes {
		fmt.Println("note:", note)
	}
}
