package acker_test

import (
	"fmt"

	"tstorm/internal/acker"
	"tstorm/internal/sim"
	"tstorm/internal/tuple"
)

// A spout tuple traverses spout → bolt → sink; every stage XORs the edge
// IDs it consumed and produced, and the tree completes when the checksum
// returns to zero.
func ExampleTracker() {
	tr := acker.NewTracker()
	root, edge := tuple.ID(0xA), tuple.ID(0xB)
	tr.Init(root, root, 0, sim.Time(0))
	// The bolt consumed the root edge and emitted edge 0xB.
	_, done := tr.Ack(root, root^edge, sim.Time(1))
	fmt.Println("after bolt:", done)
	// The sink consumed edge 0xB and emitted nothing.
	c, done := tr.Ack(root, edge, sim.Time(2))
	fmt.Println("after sink:", done, "late:", c.Late)
	// Output:
	// after bolt: false
	// after sink: true late: false
}
