package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"tstorm/internal/dist"
	"tstorm/internal/textdata"
)

func TestMain(m *testing.M) {
	// The dist workload re-executes the test binary as its workers.
	dist.RunWorkerIfChild()
	os.Exit(m.Run())
}

// TestManifestInSync keeps BENCHMARK.json what `bench -manifest` prints:
// the Go tables are the source, the file is what the driver reads.
func TestManifestInSync(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	gen, err := json.Marshal(manifestDoc())
	if err != nil {
		t.Fatal(err)
	}
	var want any
	if err := json.Unmarshal(gen, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `go run . -manifest`")
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload's traced pass at
// a tenth of its length (the queue drains and ack timeouts in it do not
// shrink, so it still takes most of a minute). A traced pass contains an untraced half, so one pass
// shows both lists: every workload must report every end-to-end metric,
// non-zero; no workload may report a name the manifest does not declare;
// and between them the workloads must cover every per-layer metric.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	defer func(n int, sz planSize) { probeCalls, planSizes.large = n, sz }(probeCalls, planSizes.large)
	probeCalls = 20_000
	planSizes.large.ne, planSizes.large.nodes = 600, 30 // same tag: the names are the contract

	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, d := range append(append([]decl(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || len(d.Name) > 64 {
			t.Errorf("metric name %q is outside the contract", d.Name)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Fatalf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}

	covered := make(map[string]bool)
	o := opts{seed: 7, seconds: 4, traced: true, spanDir: t.TempDir(), setups: 1}
	for _, w := range allWorkloads {
		t0 := time.Now()
		res, err := runPass(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		t.Logf("%s: %d metrics in %.1fs", w.name, len(res.Metrics), time.Since(t0).Seconds())
		for _, p := range res.Problems {
			t.Errorf("%s: failed check: %s", w.name, p)
		}
		if res.Attempted < 1 {
			t.Errorf("%s: no operation attempted", w.name)
		}
		for _, m := range res.Metrics {
			if !declared(endToEnd, m.Name) && !declared(perLayer, m.Name) {
				t.Errorf("%s reports undeclared metric %q", w.name, m.Name)
			}
			covered[m.Name] = true
		}
		for _, d := range endToEnd {
			if v, ok := res.get(d.Name); !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (reported: %v)", w.name, d.Name, v, ok)
			}
		}
	}
	for _, d := range perLayer {
		if !covered[d.Name] {
			t.Errorf("no workload reports per-layer metric %s", d.Name)
		}
	}
}

func declared(list []decl, name string) bool {
	for _, d := range list {
		if d.Name == name {
			return true
		}
	}
	return false
}

func TestHistAccuracy(t *testing.T) {
	// A single recorded value must read back within 1 % at every scale
	// from a nanosecond to an hour.
	for v := int64(1); v < int64(time.Hour); v = v*3 + 7 {
		h := newHist()
		for i := 0; i < 100; i++ {
			h.add(v)
		}
		got, _ := h.quantile(0.5)
		if err := math.Abs(got-float64(v)) / float64(v); err > 0.01 {
			t.Fatalf("value %d read back as %v: relative error %.4f > 1%%", v, got, err)
		}
	}
	// A uniform ramp: every decile within 1 %.
	h := newHist()
	const n = 100_000
	for i := 1; i <= n; i++ {
		h.add(int64(i) * 1000)
	}
	for q := 0.1; q < 0.95; q += 0.1 {
		got, ok := h.quantile(q)
		want := q * n * 1000
		if !ok || math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.1f = %v (ok %v), want %v ± 1%%", q, got, ok, want)
		}
	}
	if h.n != n {
		t.Errorf("n = %d, want %d", h.n, n)
	}
}

func TestHistRefusesThinPercentiles(t *testing.T) {
	fill := func(n int) *hist {
		h := newHist()
		for i := 1; i <= n; i++ {
			h.add(int64(i))
		}
		return h
	}
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.99, false}, // 1 sample beyond
		{999, 0.99, false}, // 9 beyond
		{1000, 0.99, true}, // 10 beyond
		{100, 0.9, true},   // 10 beyond
		{19, 0.5, false},   // 9 on one side
		{20, 0.5, true},
	}
	for _, c := range cases {
		if _, ok := fill(c.n).quantile(c.q); ok != c.want {
			t.Errorf("n=%d q=%v: ok = %v, want %v", c.n, c.q, ok, c.want)
		}
	}
	// A dump survives the trip through a dist worker's file.
	h := fill(5000)
	raw, err := json.Marshal(h.dump())
	if err != nil {
		t.Fatal(err)
	}
	var d histDump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	a, _ := h.quantile(0.99)
	b, _ := d.load().quantile(0.99)
	if a != b || d.load().n != h.n {
		t.Errorf("dump round trip: p99 %v → %v, n %d → %d", a, b, h.n, d.load().n)
	}
}

func TestQuietDecile(t *testing.T) {
	var res result
	samples := []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 100}
	res.setQuiet("lower", "ms", samples, true)
	res.setQuiet("higher", "1/s", samples, false)
	if v, _ := res.get("lower"); v != 11 {
		t.Errorf("quiet decile, lower is better: %v, want 11", v)
	}
	if v, _ := res.get("higher"); v != 19 {
		t.Errorf("quiet decile, higher is better: %v, want 19", v)
	}
}

func TestReferenceCounts(t *testing.T) {
	g := newLoadGen(2, 5, false)
	g.readers[0].seq, g.readers[1].seq = 150, 149
	ref := referenceCounts(g.lineCounts())
	var words int64
	for _, n := range ref {
		words += n
	}
	var want int64
	for _, r := range g.readers {
		for s := int64(0); s < r.seq; s++ {
			want += int64(len(textdata.SplitWords(r.line(s))))
		}
	}
	if words != want {
		t.Errorf("reference counts %d words, the emitted lines hold %d", words, want)
	}
}
