package experiment

import (
	"fmt"
	"math"
)

// Aggregate summarizes one metric across seeds.
type Aggregate struct {
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	N      int
}

// String renders "mean ± stddev (n=N)".
func (a Aggregate) String() string {
	return fmt.Sprintf("%.3f ± %.3f (n=%d)", a.Mean, a.StdDev, a.N)
}

func aggregate(vals []float64) Aggregate {
	a := Aggregate{N: len(vals), Min: math.Inf(1), Max: math.Inf(-1)}
	if a.N == 0 {
		return Aggregate{}
	}
	for _, v := range vals {
		a.Mean += v
		a.Min = math.Min(a.Min, v)
		a.Max = math.Max(a.Max, v)
	}
	a.Mean /= float64(a.N)
	for _, v := range vals {
		a.StdDev += (v - a.Mean) * (v - a.Mean)
	}
	if a.N > 1 {
		a.StdDev = math.Sqrt(a.StdDev / float64(a.N-1))
	} else {
		a.StdDev = 0
	}
	return a
}

// MultiResult is the cross-seed aggregation of one experiment config.
type MultiResult struct {
	StableMean Aggregate
	FinalNodes Aggregate
	Failed     Aggregate
	Dropped    Aggregate
	// Runs holds the individual per-seed results.
	Runs []*Result
}

// RunSeeds executes the experiment once per seed and aggregates the
// headline metrics — the simulation is deterministic per seed, so this
// measures sensitivity to random routing/ID choices, not run-to-run noise.
func RunSeeds(cfg Config, seeds []uint64) (*MultiResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiment: no seeds")
	}
	mr := &MultiResult{}
	var stable, nodes, failed, dropped []float64
	for _, seed := range seeds {
		c := cfg
		c.Seed = seed
		res, err := Run(c)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		mr.Runs = append(mr.Runs, res)
		stable = append(stable, res.StableMean)
		nodes = append(nodes, float64(res.FinalNodes))
		failed = append(failed, float64(res.Failed))
		dropped = append(dropped, float64(res.Dropped))
	}
	mr.StableMean = aggregate(stable)
	mr.FinalNodes = aggregate(nodes)
	mr.Failed = aggregate(failed)
	mr.Dropped = aggregate(dropped)
	return mr, nil
}
