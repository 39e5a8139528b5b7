// Command perfbench is the repository's same-machine benchmark. It starts
// real qosrmad processes built from the checkout under test, drives them
// over loopback from this one process, runs the fleet engine in-process,
// checks every answer it verifies against the library, and prints one
// JSON result line.
//
// Usage (from the repository root, after run.sh has built the binaries):
//
//	perfbench -root . -qosrmad .bench_build/qosrmad \
//	    --workload wire-hot --seed 1 --seconds 10 --trace 0
//
// Workloads: wire-hot, wire-cold, json-tier-open, fleet-equilibrium (see
// README.md for why each exists). --trace 0 reports the end-to-end
// metrics; --trace 1 runs the per-layer pass instead and reports the
// per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qosrma/internal/cluster"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run measured and checked.
type outcome struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// checks collects failed correctness checks; any one makes the run
// incorrect.
type checks struct{ failures []string }

func (c *checks) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	c.failures = append(c.failures, msg)
	fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", msg)
}

// config is one invocation's parameters.
type config struct {
	root     string
	qosrmad  string
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func (c config) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.root, "root", ".", "repository checkout root")
	flag.StringVar(&cfg.qosrmad, "qosrmad", ".bench_build/qosrmad", "qosrmad binary built from the checkout")
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer pass")
	buildOnly := flag.Bool("build-db-only", false, "build the simulation database and exit (fleet set-up probe)")
	flag.Parse()
	cfg.trace = traceFlag == 1

	if *buildOnly {
		if _, err := buildDB(); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if cfg.seconds <= 0 {
		fatalf("--seconds must be positive")
	}

	// Children die with the benchmark on every exit path: deferred
	// teardown on return, this handler on a signal, and Pdeathsig on a
	// hard kill (see procs.go).
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		stopAll()
		fatalf("interrupted by %v", sig)
	}()

	rec := newRunRecord(cfg)
	t0 := time.Now()
	db, err := buildDB()
	if err != nil {
		fatalf("build database: %v", err)
	}
	buildS := time.Since(t0).Seconds()
	tr := newTracer()
	var (
		out      outcome
		chk      checks
		fleetRes *cluster.Result
	)
	switch cfg.workload {
	case "wire-hot", "wire-cold":
		out, err = runWire(cfg, db, &chk, tr)
	case "json-tier-open":
		out, err = runJSONTier(cfg, db, &chk, tr)
	case "fleet-equilibrium":
		out, fleetRes, err = runFleet(cfg, db, &chk, tr)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	stopAll()
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	if cfg.trace {
		if err := layerPass(cfg, db, tr, fleetRes, &out, &chk); err != nil {
			fatalf("%s: layer pass: %v", cfg.workload, err)
		}
		out.set("simdb.build_s", "s", buildS)
		for layer, ms := range tr.selfTimes() {
			out.set("self_ms."+layer, "ms", ms)
		}
		out.set("trace.spans", "count", float64(len(tr.spans)))
		if err := tr.write(cfg); err != nil {
			fatalf("write spans: %v", err)
		}
	}

	for name, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			chk.failf("metric %s is not a number (%v)", name, m.Value)
			out.set(name, m.Unit, 0)
		}
	}
	recLine, _ := json.Marshal(rec)
	fmt.Printf("run_record %s\n", recLine)
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(chk.failures) == 0 && out.failed == 0, out.attempted, out.failed, out.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	stopAll()
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
