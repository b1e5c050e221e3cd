package experiments

import (
	"strings"
	"testing"

	"repro/internal/heuristics"
)

func run(t *testing.T, id string) *Report {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if rep.ID != id {
		t.Fatalf("report ID %q, want %q", rep.ID, id)
	}
	return rep
}

func assertAllChecksPass(t *testing.T, rep *Report) {
	t.Helper()
	for _, c := range rep.Failed() {
		t.Errorf("%s: check %q failed: paper=%s got=%s", rep.ID, c.Name, c.Want, c.Got)
	}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 13 {
		t.Fatalf("registry has %d experiments, want 13", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" || e.Artifacts == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("unknown ID found")
	}
}

func TestMinMinExample(t *testing.T) {
	rep := run(t, "E1")
	assertAllChecksPass(t, rep)
	for _, want := range []string{"Table 1", "Original mapping", "First iterative mapping", "makespan"} {
		if !strings.Contains(rep.Body, want) {
			t.Errorf("E1 body missing %q", want)
		}
	}
}

func TestMCTExample(t *testing.T) {
	assertAllChecksPass(t, run(t, "E2"))
}

func TestMETExample(t *testing.T) {
	assertAllChecksPass(t, run(t, "E3"))
}

func TestSWAExample(t *testing.T) {
	rep := run(t, "E4")
	assertAllChecksPass(t, rep)
	// The signature values of the paper's trace must appear.
	for _, want := range []string{"4/13", "2/3", "6.5"} {
		if !strings.Contains(rep.Body, want) {
			t.Errorf("E4 body missing %q", want)
		}
	}
}

func TestKPBExample(t *testing.T) {
	assertAllChecksPass(t, run(t, "E5"))
}

func TestSufferageExample(t *testing.T) {
	rep := run(t, "E6")
	assertAllChecksPass(t, rep)
	if !strings.Contains(rep.Body, "pass 1") {
		t.Error("E6 body missing pass tables")
	}
}

func TestGenitorMonotoneExperiment(t *testing.T) {
	assertAllChecksPass(t, run(t, "E7"))
}

func TestTheoremVerificationExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("long property experiment")
	}
	assertAllChecksPass(t, run(t, "E8"))
}

func TestSeededMonotoneExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("long property experiment")
	}
	assertAllChecksPass(t, run(t, "E9"))
}

func TestMonteCarloStudyExperiment(t *testing.T) {
	rep, err := RunMonteCarloStudySized(10, 10, 3) // reduced size for test speed
	if err != nil {
		t.Fatal(err)
	}
	assertAllChecksPass(t, rep)
	if !strings.Contains(rep.Body, "met/det") {
		t.Errorf("E10 body missing cells:\n%s", rep.Body)
	}
}

// The pinned matrices must stay pinned: shape and a few spot values.
func TestPinnedMatricesStable(t *testing.T) {
	mm := MinMinExampleETC()
	if mm.Tasks() != 4 || mm.Machines() != 3 || mm.At(1, 1) != 1 {
		t.Error("Min-Min example matrix drifted")
	}
	mc := MCTMETExampleETC()
	if mc.Tasks() != 4 || mc.At(0, 0) != 2 || mc.At(0, 1) != 2 {
		t.Error("MCT/MET example matrix drifted (needs the t0 tie)")
	}
	sw := SWAExampleETC()
	if sw.Tasks() != 5 || sw.At(3, 2) != 2.5 {
		t.Error("SWA example matrix drifted")
	}
	kp := KPBExampleETC()
	if kp.Tasks() != 5 || kp.At(4, 2) != 2.5 {
		t.Error("KPB example matrix drifted")
	}
	sf := SufferageExampleETC()
	if sf.Tasks() != 8 || sf.Machines() != 3 || sf.At(0, 0) != 6 {
		t.Error("Sufferage example matrix drifted")
	}
	lo, hi := heuristics.PaperSWALow, heuristics.PaperSWAHigh
	if hi != 0.49 || !(lo > 4.0/13 && lo <= 1.0/3) {
		t.Errorf("SWA thresholds %g/%g outside the paper-consistent interval", lo, hi)
	}
}

func TestCheckHelpers(t *testing.T) {
	c := check("x", "a", "a")
	if !c.OK {
		t.Error("equal check failed")
	}
	c = check("x", "a", "b")
	if c.OK {
		t.Error("unequal check passed")
	}
	cm := checkMultiset("x", []float64{1, 2}, []float64{2, 1})
	if !cm.OK {
		t.Error("permuted multiset check failed")
	}
	cm = checkMultiset("x", []float64{1, 2}, []float64{1})
	if cm.OK {
		t.Error("length-mismatch multiset check passed")
	}
	cb := checkBool("x", true, false)
	if cb.OK {
		t.Error("bool mismatch passed")
	}
}

func TestBiString(t *testing.T) {
	cases := []struct {
		bi   float64
		want string
	}{
		{0, "0"},
		{1, "1"},
		{0.5, "1/2"},
		{1.0 / 3, "1/3"},
		{2.0 / 3, "2/3"},
		{4.0 / 13, "4/13"},
	}
	for _, tc := range cases {
		if got := biString(tc.bi); got != tc.want {
			t.Errorf("biString(%g) = %q, want %q", tc.bi, got, tc.want)
		}
	}
}

func TestReportSummaryAndChecksString(t *testing.T) {
	rep := &Report{ID: "EX", Title: "demo", Checks: []Check{
		{Name: "good", Want: "1", Got: "1", OK: true},
		{Name: "bad", Want: "1", Got: "2", OK: false},
	}}
	if !strings.Contains(rep.Summary(), "FAIL (1/2") {
		t.Errorf("Summary = %q", rep.Summary())
	}
	cs := rep.ChecksString()
	if !strings.Contains(cs, "[ok  ]") || !strings.Contains(cs, "[FAIL]") {
		t.Errorf("ChecksString = %q", cs)
	}
	if len(rep.Failed()) != 1 {
		t.Error("Failed() wrong")
	}
	pass := &Report{ID: "EY", Title: "demo", Checks: []Check{{OK: true}}}
	if !strings.Contains(pass.Summary(), "PASS") {
		t.Error("pass summary wrong")
	}
}

func TestFmtSet(t *testing.T) {
	if got := fmtSet([]float64{2, 1, 6.5}); got != "{1, 2, 6.5}" {
		t.Fatalf("fmtSet = %q", got)
	}
}

func TestQualityComparisonExperiment(t *testing.T) {
	rep, err := RunQualityComparisonSized(6)
	if err != nil {
		t.Fatal(err)
	}
	assertAllChecksPass(t, rep)
	if !strings.Contains(rep.Body, "min-min") {
		t.Error("E11 body missing heuristic rows")
	}
}

func TestSensitivityStudyExperiment(t *testing.T) {
	rep, err := RunSensitivityStudySized(10)
	if err != nil {
		t.Fatal(err)
	}
	assertAllChecksPass(t, rep)
	if !strings.Contains(rep.Body, "0.30") {
		t.Errorf("E12 body missing the error levels:\n%s", rep.Body)
	}
}

func TestRobustnessStudyExperiment(t *testing.T) {
	rep, err := RunRobustnessStudySized(12)
	if err != nil {
		t.Fatal(err)
	}
	assertAllChecksPass(t, rep)
	if !strings.Contains(rep.Body, "sufferage") {
		t.Errorf("E13 body missing rows:\n%s", rep.Body)
	}
}
