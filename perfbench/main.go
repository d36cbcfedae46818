// Command perfbench is the repository's end-to-end benchmark. One run
// executes one named workload against the program's public functions for
// a fixed time, checks every output, and prints one JSON line of metrics:
// the end-to-end metrics when -trace=0, the per-layer metrics (from spans
// around each call into a layer and a CPU profile grouped by package) when
// -trace=1. BENCHMARK.json at the repository root lists the workloads and
// metrics; README.md in this directory defines each one.
//
//	bash perfbench/run.sh --workload paper-hc --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed whose result digests are pinned in pinned.json.
const defaultSeed = 1

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// traceDir is where traced runs write their spans and profile shares.
var traceDir = filepath.Join(".bench_build", "trace")

// outcome is what a workload run reports.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]float64
	// trace holds the traced run's spans and profile shares, written to
	// traceDir as JSON when the run ends.
	trace map[string]any
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"paper-hc":  func(o options) (*outcome, error) { return runSim(paperHC(), o) },
	"paper-lc":  func(o options) (*outcome, error) { return runSim(paperLC(), o) },
	"mesh-256":  func(o options) (*outcome, error) { return runSim(mesh256(), o) },
	"serve-mix": runServe,
}

func main() {
	var (
		o     options
		trace int
		pin   bool
	)
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.BoolVar(&pin, "pin", false, "recompute pinned.json for the default seed and exit")
	flag.Parse()
	o.trace = trace == 1
	if pin {
		if err := writePins("pinned.json"); err != nil {
			fatalf("pin: %v", err)
		}
		return
	}
	run, ok := workloads[o.workload]
	if !ok {
		fatalf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	host := fingerprint()
	logf("host %s", host)
	out, err := run(o)
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	if err := emit(o, out, host); err != nil {
		fatalf("%v", err)
	}
	// Workers of a service whose simulation cannot be interrupted may
	// still be running; the process ends them.
	os.Exit(0)
}

// emit prints the host line and the result line, and writes the trace
// file of a traced run.
func emit(o options, out *outcome, host hostInfo) error {
	names, units := e2eMetrics, e2eUnits
	if o.trace {
		names, units = layerMetrics, layerUnits
		out.metrics["bench.failed_frac"] = float64(out.failed) / float64(max(out.attempted, 1))
	}
	metrics := make(map[string]map[string]any, len(names))
	for _, n := range names {
		v, ok := out.metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		metrics[n] = map[string]any{"value": v, "unit": units[n]}
	}
	if o.trace {
		out.trace["host"] = host
		out.trace["workload"] = o.workload
		out.trace["seed"] = o.seed
		out.trace["metrics"] = metrics
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		b, err := json.MarshalIndent(out.trace, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
		logf("trace written to %s", path)
	}
	hb, _ := json.Marshal(host)
	fmt.Printf("# host %s\n", hb)
	line, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() []string {
	var n []string
	for k := range workloads {
		n = append(n, k)
	}
	sort.Strings(n)
	return n
}

// hostInfo is the fingerprint stamped on every output: numbers taken on
// different hosts do not compare.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion)
}

func fingerprint() hostInfo {
	h := hostInfo{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// resetPeakRSS resets the kernel's high-water mark of the process's
// resident set (clear_refs 5), so that peakRSSMB reports the peak of the
// work that follows.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o644); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the peak resident set (VmHWM) since the last
// resetPeakRSS, in megabytes (2^20 bytes, as the kernel reports kB).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// timeIt returns fn's wall time in seconds.
func timeIt(fn func()) float64 {
	t := time.Now()
	fn()
	return time.Since(t).Seconds()
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func fatalf(format string, args ...any) {
	logf(format, args...)
	os.Exit(1)
}
