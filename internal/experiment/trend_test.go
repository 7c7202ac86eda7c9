package experiment

import (
	"testing"
	"time"
)

// gammaTrend runs Storm plus T-Storm at the paper's γ values and asserts
// the §V shape: T-Storm always beats the default scheduler, higher γ uses
// fewer nodes, and deeper consolidation costs some latency back (the
// paper's warning not to "greedily set γ to a large value").
func gammaTrend(t *testing.T, wl WorkloadKind, gammas []float64, wantNodes []int) {
	t.Helper()
	dur := 600 * time.Second
	storm, err := Run(Config{Name: "trend-storm", Workload: wl, Scheduler: SchedStormDefault, Duration: dur})
	if err != nil {
		t.Fatal(err)
	}
	stormMean := storm.StableMean
	if storm.Failed > 0 {
		t.Fatalf("Storm baseline unstable: %d failures", storm.Failed)
	}
	var prev float64
	for i, g := range gammas {
		res, err := Run(Config{Name: "trend-ts", Workload: wl, Scheduler: SchedTStorm, Gamma: g, Duration: dur})
		if err != nil {
			t.Fatal(err)
		}
		mean := res.StableMean
		t.Logf("%s γ=%.1f: %.2fms on %d nodes (Storm %.2fms on %d)",
			wl, g, mean, res.FinalNodes, stormMean, storm.FinalNodes)
		if res.FinalNodes != wantNodes[i] {
			t.Errorf("γ=%v used %d nodes, want %d", g, res.FinalNodes, wantNodes[i])
		}
		if mean >= stormMean {
			t.Errorf("γ=%v did not beat Storm: %.2f vs %.2f ms", g, mean, stormMean)
		}
		if res.Failed > res.RootsEmitted/100 {
			t.Errorf("γ=%v failed too many: %d", g, res.Failed)
		}
		if i > 0 && mean < prev {
			t.Errorf("γ=%v latency %.2f improved over smaller γ's %.2f; consolidation should cost",
				g, mean, prev)
		}
		prev = mean
	}
}

func TestWordCountGammaTrend(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long shape test")
	}
	gammaTrend(t, WorkloadWordCount, []float64{1, 1.8, 2.2}, []int{10, 7, 5})
}

func TestLogStreamGammaTrend(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long shape test")
	}
	gammaTrend(t, WorkloadLogStream, []float64{1, 1.7, 2}, []int{10, 7, 5})
}
