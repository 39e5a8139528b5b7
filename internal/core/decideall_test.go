package core

import (
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/power"
)

// decideSequential drives a fresh manager the way the simulator does —
// one Decide per core in core order — and returns the final invocation's
// answer, the reference DecideAll must reproduce bit for bit.
func decideSequential(scheme Scheme, kind ModelKind, slack []float64, feedback bool, st []*IntervalStats) ([]arch.Setting, bool) {
	sys := arch.DefaultSystemConfig(len(st))
	m := NewManager(Config{
		Sys:      sys,
		Power:    power.DefaultParams(sys),
		Scheme:   scheme,
		Model:    kind,
		Slack:    slack,
		Feedback: feedback,
	})
	var (
		settings []arch.Setting
		ok       bool
	)
	for i, s := range st {
		settings, ok = m.Decide(i, s)
	}
	return settings, ok
}

// TestDecideAllMatchesSequential pins the batch decision the serving
// shards use to the sequential library order across every scheme and a
// spread of sensitivity mixes.
func TestDecideAllMatchesSequential(t *testing.T) {
	sys := arch.DefaultSystemConfig(4)
	mixes := [][]bool{
		{true, true, false, false},
		{false, false, false, false},
		{true, true, true, true},
		{true, false, true, false},
	}
	schemes := []struct {
		scheme Scheme
		kind   ModelKind
	}{
		{SchemeStatic, Model2},
		{SchemeDVFSOnly, Model2},
		{SchemePartitionOnly, Model2},
		{SchemeCoordDVFSCache, Model2},
		{SchemeCoordCoreDVFSCache, Model3},
		{SchemeUCPDVFS, Model2},
	}
	slacks := [][]float64{nil, {0.4, 0.4, 0.4, 0.4}, {0, 0.4, 0, 0.4}}
	for _, sc := range schemes {
		for mi, mix := range mixes {
			for si, slack := range slacks {
				for _, feedback := range []bool{false, true} {
					st := make([]*IntervalStats, len(mix))
					for i, sensitive := range mix {
						st[i] = statsForCore(sys, i, sensitive)
					}
					wantSettings, wantOK := decideSequential(sc.scheme, sc.kind, slack, feedback, st)

					m := NewManager(Config{
						Sys:      sys,
						Power:    power.DefaultParams(sys),
						Scheme:   sc.scheme,
						Model:    sc.kind,
						Slack:    slack,
						Feedback: feedback,
					})
					gotSettings, gotOK := m.DecideAll(st)
					if gotOK != wantOK {
						t.Fatalf("%v mix %d slack %d fb=%v: DecideAll ok=%v, sequential %v",
							sc.scheme, mi, si, feedback, gotOK, wantOK)
					}
					if !gotOK {
						continue
					}
					for c := range gotSettings {
						if gotSettings[c] != wantSettings[c] {
							t.Fatalf("%v mix %d slack %d fb=%v core %d: DecideAll %v, sequential %v",
								sc.scheme, mi, si, feedback, c, gotSettings[c], wantSettings[c])
						}
					}

					if feedback {
						// The feedback table is stateful by design; the
						// reuse invariant below is for the stateless shape
						// the serving shards use.
						continue
					}
					// A second DecideAll on the same (reused) manager must
					// answer identically: no state leaks between queries.
					again, againOK := m.DecideAll(st)
					if againOK != gotOK {
						t.Fatalf("%v mix %d: repeat DecideAll ok=%v, first %v", sc.scheme, mi, againOK, gotOK)
					}
					for c := range again {
						if again[c] != gotSettings[c] {
							t.Fatalf("%v mix %d core %d: repeat DecideAll drifted", sc.scheme, mi, c)
						}
					}
				}
			}
		}
	}
}

// TestDecideAllLengthMismatchPanics guards the API contract.
func TestDecideAllLengthMismatchPanics(t *testing.T) {
	m, sys := managerFor(SchemeCoordDVFSCache, Model2)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	m.DecideAll([]*IntervalStats{statsForCore(sys, 0, true)})
}

// TestDecideAllBuildsFreshCurvesBeforeWarmUp: a sparse statistics vector
// that leaves an unseen core out still records every fresh curve, as the
// equivalent Decide calls would, so the missing core's first statistics
// complete the warm-up on their own.
func TestDecideAllBuildsFreshCurvesBeforeWarmUp(t *testing.T) {
	m, sys := managerFor(SchemeCoordDVFSCache, Model2)
	st := make([]*IntervalStats, sys.NumCores)
	for i := 1; i < len(st); i++ {
		st[i] = statsForCore(sys, i, i%2 == 0)
	}
	if _, ok := m.DecideAll(st); ok {
		t.Fatal("decided with core 0 never seen")
	}
	got, ok := m.Decide(0, statsForCore(sys, 0, true))
	if !ok {
		t.Fatal("core 0's first statistics did not complete the warm-up")
	}
	st[0] = statsForCore(sys, 0, true)
	want, _ := decideSequential(SchemeCoordDVFSCache, Model2, nil, false, st)
	for c := range want {
		if got[c] != want[c] {
			t.Fatalf("core %d: %v, sequential %v", c, got[c], want[c])
		}
	}
}
