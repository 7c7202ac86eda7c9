package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// TestMain runs the command instead of the tests when TSTORM_SIM_MAIN is
// set, so a test can drive it through its flags as a child process.
func TestMain(m *testing.M) {
	if os.Getenv("TSTORM_SIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// keys returns the sorted keys of a JSON object.
func keys(t *testing.T, raw []byte) []string {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("not a JSON object: %v\n%s", err, raw)
	}
	out := make([]string, 0, len(doc))
	for k := range doc {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestJSONNamesTheRun pins the keys of -json's output: every field of the
// result, including the run's label, scheduler and γ, and each
// reassignment's assignment ID.
func TestJSONNamesTheRun(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-json", "-scheduler", "tstorm", "-gamma", "1.8", "-duration", "120s")
	cmd.Env = append(os.Environ(), "TSTORM_SIM_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("tstorm-sim -json: %v", err)
	}
	want := []string{
		"Completions", "Components", "Dropped", "Failed", "Failures", "FinalNodes",
		"Gamma", "LateCompletions", "Latency", "Name", "Nodes", "P50", "P99",
		"Placement", "Reassignments", "RootsEmitted", "Scheduler", "SimEvents",
		"SinkWrites", "StableMean",
	}
	if got := keys(t, out); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("top-level keys\n got %v\nwant %v", got, want)
	}
	var res struct {
		Name          string
		Scheduler     string
		Gamma         float64
		Reassignments []json.RawMessage
	}
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if res.Name != "cli" || res.Scheduler != "tstorm" || res.Gamma != 1.8 {
		t.Errorf("run labelled %q, scheduler %q, γ %g; want cli, tstorm, 1.8", res.Name, res.Scheduler, res.Gamma)
	}
	if len(res.Reassignments) == 0 {
		t.Fatal("no reassignment in the output")
	}
	want = []string{"AssignID", "At", "UsedNodes", "UsedSlots"}
	if got := keys(t, res.Reassignments[0]); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("reassignment keys\n got %v\nwant %v", got, want)
	}
}
