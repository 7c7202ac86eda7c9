package core

import (
	"testing"

	"tstorm/internal/cluster"
	"tstorm/internal/scheduler"
	"tstorm/internal/scheduler/schedtest"
)

// TestContendersOnTwoTopologies runs every algorithm tstorm-bench -arena
// ranks — the registered builtins plus Algorithm 1 — over a two-topology
// input on a cluster with few spare slots. The live arena runs one
// topology, so it cannot see a slot shared across topologies; this test
// fails on that, on a dropped executor, on an error, or on a panic.
func TestContendersOnTwoTopologies(t *testing.T) {
	reg := scheduler.NewRegistry()
	scheduler.RegisterBuiltins(reg)
	reg.Register(NewTrafficAware(1.5))
	cl, err := cluster.Uniform(6, 4, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range reg.Names() {
		t.Run(name, func(t *testing.T) {
			algo, _ := reg.Get(name)
			in, err := schedtest.TwoTopologies(cl)
			if err != nil {
				t.Fatal(err)
			}
			a, err := algo.Schedule(in)
			if err != nil {
				t.Fatal(err)
			}
			if err := schedtest.Complete(in, a); err != nil {
				t.Fatal(err)
			}
		})
	}
}
