package qosrma

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"qosrma/internal/core"
	"qosrma/internal/experiments"
)

// -update refreshes the committed golden tables from the current
// implementation:
//
//	go test -run TestGolden -update .
//
// Review the diff before committing — any byte that moves is a behaviour
// change of the paper reproduction.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden files")

// goldenSweeps defines the committed paper tables: each regenerates
// through the public System.Sweep path and must match its golden CSV byte
// for byte. Together they pin the Paper I energy-savings comparison, the
// Paper II core-reconfiguration comparison and the bandwidth ablation
// against regression — the wire format (column order, float rendering)
// and the simulated numbers at once.
func goldenSweeps(t *testing.T, s *System) map[string]SweepSpec {
	t.Helper()
	mixesI, err := s.PaperIMixes(20)
	if err != nil {
		t.Fatal(err)
	}
	mixesII, err := s.PaperIIMixes()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]SweepSpec{
		// Paper I headline comparison (P1.F4): per-mix savings of the
		// DVFS-only strawman, cache partitioning alone, and the
		// coordinated scheme over the 20 four-core category mixes.
		"paper1_f4.csv": {
			Name:    "paper1-f4",
			Mixes:   mixesI,
			Schemes: []Scheme{DVFSOnly, RM1, RM2},
		},
		// Paper II comparison: coordinated DVFS+cache versus the
		// additional core reconfiguration, with the MLP-aware model.
		"paper2_rm3.csv": {
			Name:    "paper2-rm3",
			Mixes:   mixesII,
			Schemes: []Scheme{RM2, RM3},
			Models:  []ModelKind{Model3},
		},
		// Bandwidth ablation: the coordinated scheme under per-core
		// memory-bandwidth caps (0 = unconstrained, then the paper's
		// constrained variants).
		"ablation_bandwidth.csv": {
			Name:          "ablation-bandwidth",
			Mixes:         mixesI[:4],
			Schemes:       []Scheme{RM2},
			BandwidthGBps: []float64{0, 6, 3},
		},
		// Uncoordinated strawman and QoS reference: UCP lookahead
		// partitioning followed by independent DVFS, and the static
		// baseline, with the phase-history feedback table off and on.
		"ablation_uncoordinated.csv": {
			Name:     "ablation-uncoordinated",
			Mixes:    mixesI[:4],
			Schemes:  []Scheme{core.SchemeUCPDVFS, Static},
			Feedback: []bool{false, true},
		},
	}
}

// TestGoldenTables regenerates every committed table via System.Sweep and
// diffs it byte-for-byte against testdata/golden. Run with -update to
// refresh after an intentional change.
func TestGoldenTables(t *testing.T) {
	s := testSystem(t)
	for name, spec := range goldenSweeps(t, s) {
		t.Run(name, func(t *testing.T) {
			res, err := s.Sweep(spec)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteSweepCSV(&buf, res); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", name)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s (%d bytes)", path, buf.Len())
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s drifted from the committed table.\n"+
					"If the change is intentional, refresh with:\n"+
					"  go test -run TestGoldenTables -update .\n"+
					"got %d bytes, want %d; first divergence at byte %d",
					name, buf.Len(), len(want), firstDiff(buf.Bytes(), want))
			}
		})
	}
}

// TestGoldenClusterComparison regenerates the committed small-fleet
// placement comparison (EXT.EQ: first-fit vs greedy scored vs certified
// pure Nash equilibrium on the same arrival trace) and diffs it byte for
// byte against testdata/golden/cluster_compare.csv. Beyond byte identity,
// it pins the headline claim of the equilibrium policy: on this scenario
// equilibrium placement beats or ties greedy scored placement on fleet
// energy savings. Refresh with -update (see TestGoldenTables).
func TestGoldenClusterComparison(t *testing.T) {
	s := testSystem(t)
	opt := experiments.ClusterOptions{
		Machines:            3,
		Jobs:                12,
		MeanInterarrivalSec: 0.4,
		Seed:                1,
		Slack:               0.2,
		Scheme:              core.SchemeCoordDVFSCache,
	}
	rows, err := experiments.RunClusterComparison(s.db, opt)
	if err != nil {
		t.Fatal(err)
	}
	var scored, equilibrium *experiments.ClusterCompareRow
	for i := range rows {
		switch rows[i].Policy {
		case "scored":
			scored = &rows[i]
		case "equilibrium":
			equilibrium = &rows[i]
		}
	}
	if scored == nil || equilibrium == nil {
		t.Fatalf("comparison missing policies: %+v", rows)
	}
	if equilibrium.EnergySavings < scored.EnergySavings {
		t.Fatalf("equilibrium placement saves %.6f, below greedy scored %.6f",
			equilibrium.EnergySavings, scored.EnergySavings)
	}
	var buf bytes.Buffer
	if err := experiments.WriteClusterCompareCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "cluster_compare.csv")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("cluster_compare.csv drifted from the committed table.\n"+
			"If the change is intentional, refresh with:\n"+
			"  go test -run TestGoldenClusterComparison -update .\n"+
			"got %d bytes, want %d; first divergence at byte %d",
			buf.Len(), len(want), firstDiff(buf.Bytes(), want))
	}
}

// firstDiff returns the index of the first differing byte.
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
