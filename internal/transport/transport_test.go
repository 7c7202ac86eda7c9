package transport

import (
	"testing"
	"testing/quick"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/sim"
)

func TestClassify(t *testing.T) {
	a := cluster.SlotID{Node: "n1", Port: 6700}
	b := cluster.SlotID{Node: "n1", Port: 6701}
	c := cluster.SlotID{Node: "n2", Port: 6700}
	tests := []struct {
		src, dst cluster.SlotID
		want     HopKind
	}{
		{a, a, HopLocal},
		{a, b, HopInterProcess},
		{a, c, HopInterNode},
		{c, a, HopInterNode},
	}
	for _, tt := range tests {
		if got := Classify(tt.src, tt.dst); got != tt.want {
			t.Errorf("Classify(%v, %v) = %v, want %v", tt.src, tt.dst, got, tt.want)
		}
	}
}

func TestHopKindString(t *testing.T) {
	if HopLocal.String() != "local" || HopInterProcess.String() != "inter-process" ||
		HopInterNode.String() != "inter-node" || HopKind(0).String() != "HopKind(0)" {
		t.Fatal("HopKind.String wrong")
	}
}

func TestDefaultCostModelValidAndOrdered(t *testing.T) {
	m := DefaultCostModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// The whole premise of the paper: local < inter-process < inter-node.
	if !(m.LocalDelay < m.LoopbackDelay && m.LoopbackDelay < m.NetworkDelay) {
		t.Fatal("hop delays not ordered local < inter-process < inter-node")
	}
}

func TestCostModelValidation(t *testing.T) {
	bad := []CostModel{
		{LocalDelay: -1, BandwidthBps: 1},
		{LoopbackDelay: -1, BandwidthBps: 1},
		{NetworkDelay: -1, BandwidthBps: 1},
		{BandwidthBps: 0},
		{BandwidthBps: 1, SerializeCyclesPerByte: -1},
		{BandwidthBps: 1, ContextSwitchPenalty: -1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, m)
		}
	}
}

func TestTransmissionTime(t *testing.T) {
	m := CostModel{BandwidthBps: 1e9}
	// 10 KB at 1 Gbps = 80 µs.
	if got := m.TransmissionTime(10000); got != 80*time.Microsecond {
		t.Fatalf("TransmissionTime = %v, want 80µs", got)
	}
	if got := m.TransmissionTime(0); got != 0 {
		t.Fatalf("TransmissionTime(0) = %v", got)
	}
}

func TestSerializeCycles(t *testing.T) {
	m := CostModel{SerializeCyclesPerByte: 6}
	if got := m.SerializeCycles(100); got != 600 {
		t.Fatalf("SerializeCycles = %v, want 600", got)
	}
}

func TestNICSerializesTransmissions(t *testing.T) {
	m := CostModel{BandwidthBps: 1e9}
	nic := NewNIC(m)
	t0 := sim.Time(0)
	// First message: done at 80µs.
	d1 := nic.Send(t0, 10000)
	if d1 != sim.Time(80*time.Microsecond) {
		t.Fatalf("d1 = %v, want 80µs", d1)
	}
	// Second message at the same instant queues behind the first.
	d2 := nic.Send(t0, 10000)
	if d2 != sim.Time(160*time.Microsecond) {
		t.Fatalf("d2 = %v, want 160µs", d2)
	}
	// A message after the NIC is idle starts fresh.
	d3 := nic.Send(sim.Time(time.Millisecond), 10000)
	if d3 != sim.Time(time.Millisecond+80*time.Microsecond) {
		t.Fatalf("d3 = %v", d3)
	}
	if nic.MessagesSent() != 3 {
		t.Fatalf("counter = %d msgs", nic.MessagesSent())
	}
}

// Property: NIC completion times are monotonically non-decreasing and
// never earlier than enqueue time + transmission time.
func TestPropertyNICMonotonic(t *testing.T) {
	f := func(sizes []uint16, gaps []uint8) bool {
		m := CostModel{BandwidthBps: 1e6}
		nic := NewNIC(m)
		now := sim.Time(0)
		var last sim.Time
		for i, s := range sizes {
			if i < len(gaps) {
				now = now.Add(time.Duration(gaps[i]) * time.Microsecond)
			}
			done := nic.Send(now, int(s))
			if done < last {
				return false
			}
			if done < now.Add(m.TransmissionTime(int(s))) {
				return false
			}
			last = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDispatcherRoutesByGeneration(t *testing.T) {
	d := NewDispatcher()
	if _, ok := d.Route(1); ok {
		t.Fatal("empty dispatcher routed")
	}
	d.Register(100, "old")
	d.Register(200, "new")
	if len(d.byAssign) != 2 {
		t.Fatalf("Generations = %d, want 2", len(d.byAssign))
	}
	if w, _ := d.Route(100); w != "old" {
		t.Fatalf("Route(100) = %v, want old", w)
	}
	if w, _ := d.Route(200); w != "new" {
		t.Fatalf("Route(200) = %v, want new", w)
	}
	// Unknown generation falls back to the newest.
	if w, _ := d.Route(999); w != "new" {
		t.Fatalf("Route(999) = %v, want new", w)
	}
}

func TestDispatcherUnregister(t *testing.T) {
	d := NewDispatcher()
	d.Register(100, "old")
	d.Register(200, "new")
	d.Unregister(200)
	if w, _ := d.Route(200); w != "old" {
		t.Fatalf("after unregistering newest, Route(200) = %v, want old", w)
	}
	d.Unregister(100)
	if _, ok := d.Route(100); ok {
		t.Fatal("empty dispatcher still routes")
	}
}

func TestDispatcherRegisterOutOfOrder(t *testing.T) {
	d := NewDispatcher()
	d.Register(200, "new")
	d.Register(100, "old") // registering an older generation must not displace current
	if w, _ := d.Route(999); w != "new" {
		t.Fatalf("current generation = %v, want new", w)
	}
}

func TestNICFreeAt(t *testing.T) {
	nic := NewNIC(CostModel{BandwidthBps: 1e9})
	if nic.FreeAt() != 0 {
		t.Fatal("fresh NIC not free")
	}
	done := nic.Send(sim.Time(0), 10000)
	if nic.FreeAt() != done {
		t.Fatalf("FreeAt = %v, want %v", nic.FreeAt(), done)
	}
}
