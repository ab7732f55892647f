package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// heldOutSeed is never used by the benchmark runs that fix the bounds.
const heldOutSeed = 90210

func smokeConfig(t *testing.T, trace bool) config {
	cfg := defaultConfig()
	cfg.seed, cfg.seconds, cfg.trace, cfg.work = heldOutSeed, 2, trace, t.TempDir()
	cfg.bpPrograms, cfg.fhPrograms, cfg.setupTime = 64, 18, 100*time.Millisecond
	return cfg
}

// benchmarkSpec reads the metric names BENCHMARK.json promises.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer []string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which perfbench does not run", w.Name)
		}
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func sameNames(t *testing.T, rep *report, want []string) {
	t.Helper()
	got := append([]string(nil), rep.names...)
	want = append([]string(nil), want...)
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("reported metrics %v, BENCHMARK.json lists %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reported metrics %v, BENCHMARK.json lists %v", got, want)
		}
	}
}

// run runs one workload and fails the test on any wrong output; the
// caller's checks still run, so one failure does not hide another.
func run(t *testing.T, name string, cfg config) *report {
	t.Helper()
	rep, err := workloads[name](cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct() {
		t.Errorf("%d of %d units failed; problems: %v", rep.failed, rep.attempted, rep.problems)
	}
	return rep
}

// TestHeldOutSeed runs every workload small on a seed the bounds were
// not tuned on, untraced and traced, each twice: every deck must check
// out against its twin, the reports must carry exactly the metrics
// BENCHMARK.json names, and the deterministic counts must repeat.
func TestHeldOutSeed(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	counts := map[bool][]string{
		false: {"code_bytes", "exec_steps"},
		true: {"ir.tokens", "codegen.reductions", "codegen.instructions", "labels.long_branches",
			"loader.deck_bytes", "blob.index_entries"},
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			t.Run(name+map[bool]string{false: "/e2e", true: "/traced"}[trace], func(t *testing.T) {
				a := run(t, name, smokeConfig(t, trace))
				b := run(t, name, smokeConfig(t, trace))
				sameNames(t, a, map[bool][]string{false: endToEnd, true: perLayer}[trace])
				for _, c := range counts[trace] {
					if a.metrics[c] != b.metrics[c] {
						t.Errorf("%s: %v then %v on one seed", c, a.metrics[c].Value, b.metrics[c].Value)
					}
				}
			})
		}
	}
}

// TestTwinsDisagreeWithWrongOutput guards the output check itself: a
// deck whose output differs from the twin's must be reported.
func TestTwinsDisagreeWithWrongOutput(t *testing.T) {
	cfg := smokeConfig(t, false)
	d, err := startDaemon("")
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	progs := makePrograms(cfg.seed, "neg", len(families))
	rep := newReport()
	resps := deckCompiles(rep, httpClient(), d.url, progs)
	if len(rep.problems) > 0 {
		t.Fatal(rep.problems)
	}
	for i := range progs {
		progs[i].want = append(append([]int32(nil), progs[i].want...), 1)
	}
	verifyDecks(rep, progs, resps)
	if len(rep.problems) != len(progs) {
		t.Fatalf("%d of %d wrong expectations reported: %v", len(rep.problems), len(progs), rep.problems)
	}
}

// TestKnownDefectsStillShow keeps the long family's exclusion from CSE
// honest: the probe must still meet both defects. Once it does not, the
// compiler is fixed; then clear the long family's cseDefect and delete
// wrongCodeProbe, so that the workloads compile the family with CSE.
func TestKnownDefectsStillShow(t *testing.T) {
	d, err := startDaemon("")
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	rep := newReport()
	got := probeDefects(rep, httpClient(), d.url, makePrograms(heldOutSeed, "probe", 2*len(families)))
	t.Log(rep.notes)
	if got.refused == 0 || got.wrong == 0 {
		t.Errorf("probe saw %d refused and %d wrong of %d CSE compiles; a defect is gone, so lift its exclusion",
			got.refused, got.wrong, got.programs)
	}
}
