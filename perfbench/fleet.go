package main

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"time"

	"qosrma/internal/cluster"
	"qosrma/internal/core"
	"qosrma/internal/simdb"
	"qosrma/internal/stats"
	"qosrma/internal/workload"
)

const (
	fleetMachines     = 12
	fleetJobs         = 96
	fleetInterarrival = 0.5 // simulated seconds, mean
	fleetWorkers      = 2
	fleetMinRuns      = 5
)

func fleetArrivals(db *simdb.DB, seed uint64) []workload.Arrival {
	return workload.PoissonArrivals(db.BenchNames(), workload.ArrivalOptions{
		Jobs:                fleetJobs,
		MeanInterarrivalSec: fleetInterarrival,
		Seed:                seed,
	})
}

func fleetSpec(db *simdb.DB, jobs []workload.Arrival, placement cluster.Placement, workers int) cluster.Spec {
	return cluster.Spec{
		Machines:  fleetMachines,
		Scheme:    core.SchemeCoordDVFSCache,
		Model:     core.Model2,
		Slack:     slack,
		Jobs:      jobs,
		Placement: placement,
		Workers:   workers,
	}
}

// timedRun runs one scenario and returns it with its host wall time.
func timedRun(db *simdb.DB, spec cluster.Spec) (*cluster.Result, float64, error) {
	t0 := time.Now()
	res, err := cluster.Run(db, spec)
	return res, time.Since(t0).Seconds(), err
}

// checkFleet verifies a fleet result: every job completed, and no
// machine ever ran more tenants than it has cores (nor two on one core).
func checkFleet(chk *checks, db *simdb.DB, res *cluster.Result) {
	if len(res.Jobs) != fleetJobs {
		chk.failf("fleet: %d of %d jobs in the result", len(res.Jobs), fleetJobs)
	}
	type edge struct {
		t     float64
		delta int
	}
	perMachine := make([][]edge, fleetMachines)
	perCore := map[[2]int][][2]float64{}
	for _, j := range res.Jobs {
		if !(j.FinishSec > j.StartSec) || j.Machine < 0 || j.Machine >= fleetMachines ||
			j.Core < 0 || j.Core >= db.Sys.NumCores {
			chk.failf("fleet: job %d did not complete cleanly (%+v)", j.Job.ID, j)
			continue
		}
		perMachine[j.Machine] = append(perMachine[j.Machine], edge{j.StartSec, 1}, edge{j.FinishSec, -1})
		k := [2]int{j.Machine, j.Core}
		perCore[k] = append(perCore[k], [2]float64{j.StartSec, j.FinishSec})
	}
	for m, es := range perMachine {
		// Departures at an instant free their cores before admissions.
		sort.Slice(es, func(a, b int) bool {
			if es[a].t != es[b].t {
				return es[a].t < es[b].t
			}
			return es[a].delta < es[b].delta
		})
		load := 0
		for _, e := range es {
			if load += e.delta; load > db.Sys.NumCores {
				chk.failf("fleet: machine %d ran %d tenants on %d cores", m, load, db.Sys.NumCores)
				break
			}
		}
	}
	for k, iv := range perCore {
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		for i := 1; i < len(iv); i++ {
			if iv[i][0] < iv[i-1][1] {
				chk.failf("fleet: machine %d core %d hosted two jobs at once", k[0], k[1])
			}
		}
	}
}

// fleetSetup times one cold database build in a fresh process: the
// benchmark re-executes itself with -build-db-only.
func fleetSetup() (struct{}, []*proc, error) {
	self, err := os.Executable()
	if err != nil {
		return struct{}{}, nil, err
	}
	p, err := spawn("db-build", self, "-build-db-only")
	if err != nil {
		return struct{}{}, nil, err
	}
	<-p.done
	p.stop()
	if code := p.cmd.ProcessState.ExitCode(); code != 0 {
		return struct{}{}, nil, fmt.Errorf("database build exited %d: %s", code, p.logs.String())
	}
	return struct{}{}, nil, nil
}

// runFleet drives fleet-equilibrium: the in-process cluster engine under
// equilibrium placement at fleetWorkers workers, one arrival trace after
// another for the window. Every result is checked; the seed's own trace
// must also equal its one-worker run.
func runFleet(cfg config, db *simdb.DB, chk *checks, tr *tracer) (outcome, *cluster.Result, error) {
	var out outcome
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	_, _, setupS, err := medianSetup(reps, fleetSetup)
	if err != nil {
		return out, nil, err
	}

	jobs := fleetArrivals(db, cfg.seed)
	checkStream(chk, cfg.workload, cfg.seed, func(seed uint64) [][]byte {
		var bs [][]byte
		for _, a := range fleetArrivals(db, seed) {
			bs = append(bs, []byte(a.Bench+"@"+strconv.FormatFloat(a.TimeSec, 'g', -1, 64)))
		}
		return bs
	})

	// The 1-worker reference of the first trace.
	ref, _, err := timedRun(db, fleetSpec(db, jobs, cluster.PlaceEquilibrium, 1))
	if err != nil {
		return out, nil, err
	}
	check := func(res *cluster.Result) {
		out.attempted += fleetJobs
		before := len(chk.failures)
		checkFleet(chk, db, res)
		if len(chk.failures) > before {
			out.failed += fleetJobs
		}
	}
	check(ref)
	same := func(res *cluster.Result) {
		out.attempted += fleetJobs
		if !reflect.DeepEqual(res, ref) {
			chk.failf("fleet: result at %d workers differs from the 1-worker result", fleetWorkers)
			out.failed += fleetJobs
		}
	}

	spec := fleetSpec(db, jobs, cluster.PlaceEquilibrium, fleetWorkers)
	if cfg.trace {
		// One untraced and one traced run; the traced one records a span
		// per departure row the engine emits.
		res, plain, err := timedRun(db, spec)
		if err != nil {
			return out, nil, err
		}
		same(res)
		spec.Emitter = &spanEmitter{tr: tr, last: time.Now()}
		res, traced, err := timedRun(db, spec)
		if err != nil {
			return out, nil, err
		}
		same(res)
		out.set("trace.overhead_pct", "%", (traced-plain)/plain*100)
		return out, ref, nil
	}

	// The window runs one trace after another: the first is the seed's
	// own, the next ones derive from it. One trace's cost swings with its
	// arrival pattern, so several traces per run keep the figures steady
	// across seeds.
	var (
		walls       []float64
		invocations int
		violations  int
	)
	start := time.Now()
	for i := 0; len(walls) < fleetMinRuns || time.Since(start) < cfg.window(); i++ {
		if i > 0 {
			spec.Jobs = fleetArrivals(db, stats.SeedFrom(cfg.seed, "perfbench/fleet/"+strconv.Itoa(i)))
		}
		res, wall, err := timedRun(db, spec)
		if err != nil {
			return out, nil, err
		}
		if i == 0 {
			same(res)
		} else {
			check(res)
		}
		walls = append(walls, wall)
		for _, m := range res.Machines {
			invocations += m.Invocations
		}
		violations += res.Violations
	}
	rss, err := procStatusKB(0, "VmHWM:")
	if err != nil {
		return out, nil, err
	}
	logf("fleet: %d traces, wall %v s, %d RMA invocations, %d QoS violations",
		len(walls), walls, invocations, violations)
	out.set("setup_s", "s", setupS)
	out.set("decide_qps", "1/s", float64(invocations)/stats.Sum(walls))
	out.set("batch_p50_ms", "ms", stats.Percentile(walls, 50)*1e3)
	out.set("batch_p90_ms", "ms", stats.Percentile(walls, 90)*1e3)
	out.set("slo_met_share", "fraction", 1-float64(violations)/float64(fleetJobs*len(walls)))
	out.set("rss_peak_mb", "MB", rss/1024)
	return out, ref, nil
}

// spanEmitter records one span per emitted departure row: the host time
// the engine spent between consecutive departures.
type spanEmitter struct {
	tr   *tracer
	last time.Time
}

func (e *spanEmitter) Emit(cluster.Row) error {
	now := time.Now()
	e.tr.record("live.fleet_departure", 0, e.last, now)
	e.last = now
	return nil
}

func (e *spanEmitter) Close() error { return nil }
