package cluster

import (
	"encoding/json"
	"testing"

	"tstorm/internal/topology"
)

func exec(comp string, i int) topology.ExecutorID {
	return topology.ExecutorID{Topology: "t", Component: comp, Index: i}
}

func TestUniformCluster(t *testing.T) {
	c, err := Uniform(10, 4, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumNodes() != 10 || c.NumSlots() != 40 {
		t.Fatalf("nodes=%d slots=%d", c.NumNodes(), c.NumSlots())
	}
	n, ok := c.Node("node01")
	if !ok || n.CapacityMHz() != 8000 {
		t.Fatalf("Node = %+v ok=%v", n, ok)
	}
	if _, ok := c.Node("nope"); ok {
		t.Fatal("missing node found")
	}
	slots := c.Slots()
	if slots[0] != (SlotID{"node01", BasePort}) || slots[39] != (SlotID{"node10", BasePort + 3}) {
		t.Fatalf("slot order wrong: %v ... %v", slots[0], slots[39])
	}
	if got := slots[0].String(); got != "node01:6700" {
		t.Fatalf("SlotID.String = %q", got)
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name  string
		nodes []Node
	}{
		{"empty", nil},
		{"empty id", []Node{{ID: "", Cores: 1, CoreMHz: 1, NumSlots: 1}}},
		{"dup id", []Node{
			{ID: "a", Cores: 1, CoreMHz: 1, NumSlots: 1},
			{ID: "a", Cores: 1, CoreMHz: 1, NumSlots: 1}}},
		{"zero cores", []Node{{ID: "a", Cores: 0, CoreMHz: 1, NumSlots: 1}}},
		{"zero mhz", []Node{{ID: "a", Cores: 1, CoreMHz: 0, NumSlots: 1}}},
		{"zero slots", []Node{{ID: "a", Cores: 1, CoreMHz: 1, NumSlots: 0}}},
	}
	for _, tt := range cases {
		if _, err := New(tt.nodes); err == nil {
			t.Errorf("New(%s) succeeded, want error", tt.name)
		}
	}
}

func TestNodesReturnsCopy(t *testing.T) {
	c, _ := Uniform(2, 1, 1000, 1)
	nodes := c.Nodes()
	nodes[0].ID = "mutated"
	if n, _ := c.Node("node01"); n.ID != "node01" {
		t.Fatal("Nodes aliases internal state")
	}
}

func TestSlotIDLess(t *testing.T) {
	a := SlotID{"a", 6700}
	if !a.Less(SlotID{"b", 6700}) || !a.Less(SlotID{"a", 6701}) || a.Less(a) {
		t.Fatal("SlotID.Less wrong")
	}
}

func TestAssignmentBasics(t *testing.T) {
	a := NewAssignment(5)
	a.Assign(exec("spout", 0), SlotID{"n1", 6700})
	a.Assign(exec("bolt", 0), SlotID{"n1", 6700})
	a.Assign(exec("bolt", 1), SlotID{"n2", 6700})
	if s, ok := a.Slot(exec("bolt", 1)); !ok || s != (SlotID{"n2", 6700}) {
		t.Fatalf("Slot = %v ok=%v", s, ok)
	}
	if _, ok := a.Slot(exec("ghost", 0)); ok {
		t.Fatal("unassigned executor found")
	}
	if got := a.NumUsedNodes(); got != 2 {
		t.Fatalf("NumUsedNodes = %d, want 2", got)
	}
	used := a.UsedSlots()
	if len(used) != 2 || used[0] != (SlotID{"n1", 6700}) {
		t.Fatalf("UsedSlots = %v", used)
	}
	nodes := a.UsedNodes()
	if len(nodes) != 2 || nodes[0] != "n1" || nodes[1] != "n2" {
		t.Fatalf("UsedNodes = %v", nodes)
	}
	per := a.SlotExecutors()
	if len(per[SlotID{"n1", 6700}]) != 2 {
		t.Fatalf("SlotExecutors = %v", per)
	}
	// Sorted executor lists.
	l := per[SlotID{"n1", 6700}]
	if !l[0].Less(l[1]) {
		t.Fatalf("executors not sorted: %v", l)
	}
}

func TestAssignmentCloneAndEqual(t *testing.T) {
	a := NewAssignment(1)
	a.Assign(exec("s", 0), SlotID{"n1", 6700})
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Assign(exec("s", 0), SlotID{"n2", 6700})
	if a.Equal(b) {
		t.Fatal("diverged clone still equal")
	}
	if got, _ := a.Slot(exec("s", 0)); got != (SlotID{"n1", 6700}) {
		t.Fatal("clone aliases original")
	}
	c := NewAssignment(1)
	if a.Equal(c) {
		t.Fatal("different sizes equal")
	}
}

func TestAssignmentJSONRoundTrip(t *testing.T) {
	a := NewAssignment(42)
	a.Assign(exec("s", 0), SlotID{"n1", 6700})
	a.Assign(exec("b", 3), SlotID{"n2", 6701})
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var b Assignment
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.ID != 42 || !a.Equal(&b) {
		t.Fatalf("round trip lost data: %+v", b)
	}
	// Deterministic encoding.
	data2, _ := json.Marshal(a)
	if string(data) != string(data2) {
		t.Fatal("non-deterministic JSON")
	}
	if err := (&Assignment{}).UnmarshalJSON([]byte("{bad")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestNodeMemoryDefaults(t *testing.T) {
	c, err := New([]Node{{ID: "a", Cores: 1, CoreMHz: 1000, NumSlots: 1}})
	if err != nil {
		t.Fatal(err)
	}
	n, _ := c.Node("a")
	if n.MemMB != DefaultMemMB {
		t.Fatalf("MemMB = %d, want default %d", n.MemMB, DefaultMemMB)
	}
	if _, err := New([]Node{{ID: "a", Cores: 1, CoreMHz: 1, NumSlots: 1, MemMB: -1}}); err == nil {
		t.Fatal("negative memory accepted")
	}
	// Explicit memory survives.
	c2, err := New([]Node{{ID: "a", Cores: 1, CoreMHz: 1000, NumSlots: 1, MemMB: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := c2.Node("a")
	if n2.MemMB != 4096 {
		t.Fatalf("MemMB = %d, want 4096", n2.MemMB)
	}
}
