package core

import (
	"testing"

	"qosrma/internal/arch"
	"qosrma/internal/power"
)

// These pins back the //qosrma:noalloc annotations in this package
// (qosrmavet's static check is necessary but not sufficient — the pins
// measure the steady state the annotations promise). Decide and
// DecideAll are pinned at exactly one allocation per call: the returned
// settings slice is an intentional defensive copy because callers
// retain it; everything on the way there reuses Manager-held scratch.

func warmManager(tb testing.TB, scheme Scheme, kind ModelKind) (*Manager, arch.SystemConfig, []*IntervalStats) {
	tb.Helper()
	sys := arch.DefaultSystemConfig(4)
	m := NewManager(Config{
		Sys:    sys,
		Power:  power.DefaultParams(sys),
		Scheme: scheme,
		Model:  kind,
	})
	st := make([]*IntervalStats, sys.NumCores)
	for i := range st {
		st[i] = statsForCore(sys, i, i%2 == 0)
	}
	if _, ok := m.DecideAll(st); !ok {
		tb.Fatal("warm-up DecideAll made no decision")
	}
	return m, sys, st
}

func TestDecideAllSteadyStateAllocs(t *testing.T) {
	m, _, st := warmManager(t, SchemeCoordDVFSCache, Model2)
	got := testing.AllocsPerRun(100, func() {
		if _, ok := m.DecideAll(st); !ok {
			t.Fatal("DecideAll made no decision")
		}
	})
	if got != 1 {
		t.Fatalf("DecideAll allocated %.0f times per call, want exactly 1 (the returned settings copy)", got)
	}
}

func TestDecideSteadyStateAllocs(t *testing.T) {
	m, _, st := warmManager(t, SchemeCoordDVFSCache, Model2)
	got := testing.AllocsPerRun(100, func() {
		if _, ok := m.Decide(0, st[0]); !ok {
			t.Fatal("Decide made no decision")
		}
	})
	if got != 1 {
		t.Fatalf("Decide allocated %.0f times per call, want exactly 1 (the returned settings copy)", got)
	}
}

func TestBuildCurveIntoSteadyStateAllocs(t *testing.T) {
	m, _, st := warmManager(t, SchemeCoordCoreDVFSCache, Model3)
	buf := m.pred.BuildCurveInto(st[0], m.localOptions(0), nil)
	got := testing.AllocsPerRun(100, func() {
		buf = m.pred.BuildCurveInto(st[0], m.localOptions(0), buf)
	})
	if got != 0 {
		t.Fatalf("BuildCurveInto allocated %.0f times per call with a reused buffer, want 0", got)
	}
}

func TestAllocateWaysIntoSteadyStateAllocs(t *testing.T) {
	m, sys, st := warmManager(t, SchemeCoordDVFSCache, Model2)
	if _, ok := m.DecideAll(st); !ok {
		t.Fatal("DecideAll made no decision")
	}
	curves := m.curves
	var ws WaysScratch
	if _, ok := AllocateWaysInto(curves, sys.LLC.Assoc, &ws); !ok {
		t.Fatal("warm-up AllocateWaysInto found no allocation")
	}
	got := testing.AllocsPerRun(100, func() {
		if _, ok := AllocateWaysInto(curves, sys.LLC.Assoc, &ws); !ok {
			t.Fatal("AllocateWaysInto found no allocation")
		}
	})
	if got != 0 {
		t.Fatalf("AllocateWaysInto allocated %.0f times per call with warm scratch, want 0", got)
	}
}

func TestSettingsFromCurvesIntoSteadyStateAllocs(t *testing.T) {
	m, sys, st := warmManager(t, SchemeCoordDVFSCache, Model2)
	if _, ok := m.DecideAll(st); !ok {
		t.Fatal("DecideAll made no decision")
	}
	curves := m.curves
	alloc, ok := AllocateWays(curves, sys.LLC.Assoc)
	if !ok {
		t.Fatal("AllocateWays found no allocation")
	}
	dst := SettingsFromCurvesInto(nil, curves, alloc)
	got := testing.AllocsPerRun(100, func() {
		dst = SettingsFromCurvesInto(dst, curves, alloc)
	})
	if got != 0 {
		t.Fatalf("SettingsFromCurvesInto allocated %.0f times per call with a reused slice, want 0", got)
	}
}

func TestMinPlusAllocs(t *testing.T) {
	m, sys, _ := warmManager(t, SchemeCoordDVFSCache, Model2)
	n := sys.LLC.Assoc + 1
	a, b := make([]float64, n), make([]float64, n)
	m.curves[0].epiRow(a)
	m.curves[1].epiRow(b)
	out, choice := make([]float64, n), make([]int, n)
	got := testing.AllocsPerRun(100, func() {
		minPlus(out, choice, a, b)
	})
	if got != 0 {
		t.Fatalf("minPlus allocated %.0f times per call, want 0", got)
	}
}

// TestSettleIntoAllocs pins the global step on warm curves: nothing for
// the coordinated and DVFS-only schemes, and for UCP only the
// allocation vector cache.UCPLookahead returns.
func TestSettleIntoAllocs(t *testing.T) {
	for _, tc := range []struct {
		scheme Scheme
		kind   ModelKind
		want   float64
	}{
		{SchemeCoordDVFSCache, Model2, 0},
		{SchemeCoordCoreDVFSCache, Model3, 0},
		{SchemeDVFSOnly, Model2, 0},
		{SchemeUCPDVFS, Model2, 1},
	} {
		m, sys, _ := warmManager(t, tc.scheme, tc.kind)
		dst := m.Settings()
		got := testing.AllocsPerRun(100, func() {
			if _, ok := SettleInto(dst, &sys, tc.scheme, m.decision, m.misses, &m.ways); !ok {
				t.Fatalf("%v: SettleInto made no decision", tc.scheme)
			}
		})
		if got != tc.want {
			t.Fatalf("%v: SettleInto allocated %.0f times per call, want %.0f", tc.scheme, got, tc.want)
		}
	}
}
