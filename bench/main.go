// Command bench is the repository's benchmark: six named workloads
// against a ucqnd server on a loopback listener, driven closed-loop from
// this process, every response verified against naive ground truth.
// -trace 0 is the timed phase and reports the end-to-end metrics;
// -trace 1 is the traced run and reports the per-layer metrics. See
// README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// result is one (workload, mode) run.
type result struct {
	Workload  string `json:"workload"`
	Trace     int    `json:"trace"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Samples is the number of latency samples behind the percentiles;
	// TailPercentile is the one latency_p99_ms reports (99 unless fewer
	// than ten samples lie beyond it).
	Samples        int                `json:"samples"`
	TailPercentile float64            `json:"tail_percentile,omitempty"`
	Failures       []string           `json:"failures,omitempty"`
	Metrics        map[string]float64 `json:"metrics"`
}

// environment is recorded in every result file.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
	LoadAvg1   float64 `json:"load_avg_1m"`
}

// report is the -out file: what -compare reads.
type report struct {
	Env     environment `json:"env"`
	Results []*result   `json:"results"`
}

func defs(trace int) []metricDef {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

// print writes one line per metric, then the line the driver parses.
func (r *result) print() error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range defs(r.Trace) {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
		note := ""
		if d.Name == "latency_p99_ms" {
			note = fmt.Sprintf("  (p%g of %d samples)", r.TailPercentile, r.Samples)
		}
		fmt.Printf("%-14s %-38s %14.4f %s%s\n", r.Workload, d.Name, v, d.Unit, note)
		line.Metrics[d.Name] = value{v, d.Unit}
	}
	for _, f := range r.Failures {
		fmt.Printf("%-14s FAILED %s\n", r.Workload, f)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	return nil
}

// runTimed is -trace 0: set-up, the timed closed-loop phase, and the
// end-to-end metrics. Set-up is repeated — at least 5 times, and up to 100
// while they total under 1.5 s — so that setup_s, their median, is steady
// even where one set-up takes milliseconds.
func runTimed(w int, seed int64, d time.Duration, clients int) (*result, error) {
	var rig *rig
	var setUpS []float64
	for total := 0.0; len(setUpS) < 5 || (len(setUpS) < 100 && total < 1.5); total += setUpS[len(setUpS)-1] {
		if rig != nil {
			if err := rig.tearDown(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if rig, err = setUp(workloads[w].build, seed, clients); err != nil {
			return nil, err
		}
		setUpS = append(setUpS, time.Since(start).Seconds())
	}
	defer rig.tearDown()

	runtime.GC() // the discarded set-ups' garbage is not the phase's
	load := rig.drive(d, 0)
	res := &result{Workload: rig.spec.name, Attempted: load.attempted, Failed: load.failed,
		Failures: load.failures, Samples: len(load.samples), Metrics: map[string]float64{}}
	if res.Samples == 0 {
		return nil, fmt.Errorf("%s: no request succeeded: %v", rig.spec.name, load.failures)
	}
	win := windowStats(load.samples)
	res.TailPercentile = win.tailPercentile
	m := res.Metrics
	m["setup_s"] = medianFloat(setUpS)
	m["throughput_rps"] = win.throughput
	m["latency_p50_ms"] = ms(win.p50)
	m["latency_p99_ms"] = ms(win.tail)
	m["complete_ratio"] = float64(load.complete) / float64(load.attempted)
	m["allocs_per_req"] = float64(load.mallocs) / float64(load.attempted)

	// Live heap with the samples released: caches, interner, fixtures.
	load = nil
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m["heap_live_mb"] = float64(mem.HeapAlloc) / (1 << 20)

	if rig.spec.persist {
		// The phase ends with Close, Open on the used directory and a
		// verified replay of the hot pairs.
		rec, err := rig.inst.recover(context.Background())
		res.Attempted += len(rig.spec.warm)
		if err != nil {
			res.Failed += len(rig.spec.warm) - rec.replays
			res.Failures = append(res.Failures, err.Error())
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// runIsolated runs one workload in one mode in a child process of this
// binary, which prints its own lines, and returns the child's result.
func runIsolated(name string, mode int, seed int64, seconds float64) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return nil, err
	}
	tmp := filepath.Join(outDir(), fmt.Sprintf("%s.%d.json", name, mode))
	defer os.Remove(tmp)
	cmd := exec.Command(exe, "-workload", name, "-trace", strconv.Itoa(mode),
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-out", tmp)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(tmp)
	if err != nil {
		// The child died before it had a result to write.
		return nil, fmt.Errorf("%s -trace %d: %w", name, mode, runErr)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil || len(rep.Results) != 1 {
		return nil, fmt.Errorf("%s -trace %d: unreadable result: %v", name, mode, err)
	}
	return rep.Results[0], nil
}

func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	v, _ := strconv.ParseFloat(strings.Fields(string(data))[0], 64)
	return v
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var (
		name     = flag.String("workload", "", "run only this workload (default: all six)")
		seed     = flag.Int64("seed", 1, "seed of every generator")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed phase per workload")
		trace    = flag.Int("trace", -1, "0: timed phase, end-to-end metrics; 1: traced run, per-layer metrics; -1: both")
		out      = flag.String("out", "", "write the results as JSON to this file")
		compare  = flag.Bool("compare", false, "compare result files: bench -compare A.json B.json [A2.json B2.json ...]")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *out, *compare, *manifest, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, out string, compare, printManifest bool, args []string) error {
	switch {
	case printManifest:
		doc, err := manifest()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(doc)
		return err
	case compare:
		return compareFiles(args)
	case len(args) > 0:
		return fmt.Errorf("unexpected arguments %q", args)
	case trace < -1 || trace > 1:
		return fmt.Errorf("-trace is 0 or 1, not %d", trace)
	case seconds <= 0:
		return fmt.Errorf("-seconds must be positive, not %v", seconds)
	}
	selected := -1
	for i, w := range workloads {
		if w.name == name {
			selected = i
		}
	}
	if name != "" && selected < 0 {
		return fmt.Errorf("unknown workload %q", name)
	}

	clients := min(runtime.NumCPU(), 4)
	rep := report{Env: environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: gitCommit(), Seed: seed, Clients: clients, Seconds: seconds, LoadAvg1: loadAverage(),
	}}
	d := time.Duration(seconds * float64(time.Second))
	switch {
	case selected < 0 || trace < 0:
		// Several runs: each in a process of its own, as the driver runs
		// them, so that none inherits another's heap, interner or caches.
		for w, def := range workloads {
			for mode := 0; mode <= 1; mode++ {
				if (selected < 0 || w == selected) && (trace < 0 || mode == trace) {
					res, err := runIsolated(def.name, mode, seed, seconds)
					if err != nil {
						return err
					}
					rep.Results = append(rep.Results, res)
				}
			}
		}
	default:
		if rep.Env.LoadAvg1 > float64(rep.Env.NumCPU)/2 {
			fmt.Fprintf(os.Stderr, "bench: warning: 1-minute load average %.2f exceeds nproc/2; timings will be noisy\n", rep.Env.LoadAvg1)
		}
		var res *result
		var err error
		if trace == 0 {
			res, err = runTimed(selected, seed, d, clients)
		} else if s, berr := workloads[selected].build(seed); berr != nil {
			err = berr
		} else {
			res, err = runTraced(s)
		}
		if err != nil {
			return err
		}
		if err := res.print(); err != nil {
			return err
		}
		rep.Results = append(rep.Results, res)
	}
	failed := false
	for _, res := range rep.Results {
		failed = failed || !res.Correct
	}
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}
