package etc

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
)

func mustMatrix(t *testing.T, vs [][]float64) *Matrix {
	t.Helper()
	m, err := New(vs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestNewValid(t *testing.T) {
	m := mustMatrix(t, [][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Tasks() != 3 || m.Machines() != 2 {
		t.Fatalf("shape = %dx%d, want 3x2", m.Tasks(), m.Machines())
	}
	if m.At(1, 1) != 4 {
		t.Fatalf("At(1,1) = %g, want 4", m.At(1, 1))
	}
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("New(nil) accepted")
	}
	if _, err := New([][]float64{{}}); err == nil {
		t.Error("New with empty row accepted")
	}
}

func TestNewRejectsRagged(t *testing.T) {
	if _, err := New([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix accepted")
	}
}

func TestNewRejectsBadValues(t *testing.T) {
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := New([][]float64{{v}}); err == nil {
			t.Errorf("value %g accepted", v)
		}
	}
}

func TestNewCopiesInput(t *testing.T) {
	vs := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	m := mustMatrix(t, vs)
	for _, row := range vs {
		for j := range row {
			row[j] = 99
		}
	}
	vs[1] = []float64{7, 8}
	if want := mustMatrix(t, [][]float64{{1, 2}, {3, 4}, {5, 6}}); !m.Equal(want) {
		t.Fatalf("New did not copy its input: %v", m.Values())
	}
}

// TestNewAllocsFlat pins New's one backing array: its allocation count is
// the same for 4 tasks and for 512.
func TestNewAllocsFlat(t *testing.T) {
	allocs := func(tasks int) float64 {
		vs := make([][]float64, tasks)
		for i := range vs {
			vs[i] = []float64{1, 2, 3}
		}
		return testing.AllocsPerRun(20, func() { mustMatrix(t, vs) })
	}
	if small, large := allocs(4), allocs(512); large != small {
		t.Fatalf("New costs %.0f allocs at 4 tasks, %.0f at 512", small, large)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on invalid input")
		}
	}()
	MustNew(nil)
}

func TestRowAndValuesAreCopies(t *testing.T) {
	m := mustMatrix(t, [][]float64{{1, 2}, {3, 4}})
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("Row returned a live reference")
	}
	vs := m.Values()
	vs[1][1] = 99
	if m.At(1, 1) != 4 {
		t.Fatal("Values returned a live reference")
	}
	// Rows share one backing array in Values' copy: an append to one row
	// must not write into the next.
	vs = m.Values()
	_ = append(vs[0], 99)
	_ = append(m.Row(0), 99)
	if vs[1][0] != 3 || m.At(1, 0) != 3 {
		t.Fatalf("append to row 0 reached row 1: copy %v, matrix %v", vs[1], m.Values()[1])
	}
}

func TestSubMatrix(t *testing.T) {
	m := mustMatrix(t, [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	sub, err := m.SubMatrix([]int{0, 2}, []int{1, 2})
	if err != nil {
		t.Fatalf("SubMatrix: %v", err)
	}
	want := [][]float64{{2, 3}, {8, 9}}
	for i, row := range want {
		for j, v := range row {
			if sub.At(i, j) != v {
				t.Fatalf("sub[%d][%d] = %g, want %g", i, j, sub.At(i, j), v)
			}
		}
	}
}

func TestSubMatrixErrors(t *testing.T) {
	m := mustMatrix(t, [][]float64{{1, 2}, {3, 4}})
	cases := []struct {
		name            string
		tasks, machines []int
	}{
		{"empty tasks", nil, []int{0}},
		{"empty machines", []int{0}, nil},
		{"task out of range", []int{2}, []int{0}},
		{"negative task", []int{-1}, []int{0}},
		{"machine out of range", []int{0}, []int{5}},
		{"duplicate task", []int{0, 0}, []int{0}},
		{"duplicate machine", []int{0}, []int{1, 1}},
	}
	for _, tc := range cases {
		if _, err := m.SubMatrix(tc.tasks, tc.machines); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestSubMatrixInto pins SubMatrixInto to SubMatrix over a shrinking
// sequence of ascending index sets, and checks that a destination sized by
// the first call takes every later one without allocating.
func TestSubMatrixInto(t *testing.T) {
	m := mustMatrix(t, [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}, {13, 14, 15, 16}})
	var dst Matrix
	steps := []struct{ tasks, machines []int }{
		{[]int{0, 1, 2, 3}, []int{0, 1, 2, 3}},
		{[]int{0, 2, 3}, []int{1, 2, 3}},
		{[]int{2, 3}, []int{1, 3}},
		{[]int{3}, []int{3}},
	}
	for _, st := range steps {
		if err := m.SubMatrixInto(&dst, st.tasks, st.machines); err != nil {
			t.Fatal(err)
		}
		want, err := m.SubMatrix(st.tasks, st.machines)
		if err != nil {
			t.Fatal(err)
		}
		if !dst.Equal(want) {
			t.Fatalf("SubMatrixInto(%v, %v) = %v, want %v", st.tasks, st.machines, dst.Values(), want.Values())
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, st := range steps {
			if err := m.SubMatrixInto(&dst, st.tasks, st.machines); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("SubMatrixInto into a sized destination allocates %v", allocs)
	}
}

func TestSubMatrixIntoErrors(t *testing.T) {
	m := mustMatrix(t, [][]float64{{1, 2}, {3, 4}})
	cases := []struct {
		name            string
		tasks, machines []int
	}{
		{"empty tasks", nil, []int{0}},
		{"empty machines", []int{0}, nil},
		{"task out of range", []int{2}, []int{0}},
		{"negative machine", []int{0}, []int{-1}},
		{"duplicate task", []int{0, 0}, []int{0}},
		{"descending machines", []int{0}, []int{1, 0}},
	}
	for _, tc := range cases {
		var dst Matrix
		if err := m.SubMatrixInto(&dst, tc.tasks, tc.machines); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if err := m.SubMatrixInto(m, []int{0}, []int{0}); err == nil {
		t.Error("destination == source: no error")
	}
}

func TestMinMachine(t *testing.T) {
	m := mustMatrix(t, [][]float64{{3, 1, 2}, {5, 5, 5}})
	if mm, v := m.MinMachine(0); mm != 1 || v != 1 {
		t.Fatalf("MinMachine(0) = %d,%g want 1,1", mm, v)
	}
	// Ties break toward the lowest index.
	if mm, v := m.MinMachine(1); mm != 0 || v != 5 {
		t.Fatalf("MinMachine(1) = %d,%g want 0,5", mm, v)
	}
}

func TestEqual(t *testing.T) {
	a := mustMatrix(t, [][]float64{{1, 2}, {3, 4}})
	b := mustMatrix(t, [][]float64{{1, 2}, {3, 4}})
	c := mustMatrix(t, [][]float64{{1, 2}, {3, 5}})
	d := mustMatrix(t, [][]float64{{1, 2}})
	if !a.Equal(b) {
		t.Error("identical matrices not Equal")
	}
	if a.Equal(c) {
		t.Error("different entries reported Equal")
	}
	if a.Equal(d) {
		t.Error("different shapes reported Equal")
	}
}

func TestStringMentionsShape(t *testing.T) {
	m := mustMatrix(t, [][]float64{{1, 2}, {3, 4}})
	s := m.String()
	if !strings.Contains(s, "2 tasks x 2 machines") {
		t.Fatalf("String() = %q lacks shape", s)
	}
}

func TestComputeStats(t *testing.T) {
	m := mustMatrix(t, [][]float64{{1, 2}, {3, 4}})
	s := m.ComputeStats()
	if s.Min != 1 || s.Max != 4 {
		t.Fatalf("min/max = %g/%g, want 1/4", s.Min, s.Max)
	}
	if math.Abs(s.Mean-2.5) > 1e-12 {
		t.Fatalf("mean = %g, want 2.5", s.Mean)
	}
	if s.TaskCV <= 0 || s.MachineCV <= 0 {
		t.Fatalf("CVs = %g/%g, want positive", s.TaskCV, s.MachineCV)
	}
}

func TestMakeConsistent(t *testing.T) {
	m := mustMatrix(t, [][]float64{{3, 1, 2}, {6, 5, 4}})
	c := m.MakeConsistent()
	if !c.IsConsistent() {
		t.Fatal("MakeConsistent result is not consistent")
	}
	// Row multisets must be preserved.
	if c.At(0, 0) != 1 || c.At(0, 1) != 2 || c.At(0, 2) != 3 {
		t.Fatalf("row 0 = %v", c.Row(0))
	}
	// Original untouched.
	if m.At(0, 0) != 3 {
		t.Fatal("MakeConsistent mutated receiver")
	}
}

func TestMakeSemiConsistentSortsEvens(t *testing.T) {
	m := mustMatrix(t, [][]float64{{9, 1, 3, 2, 5}})
	s := m.MakeSemiConsistent()
	// Even columns were {9,3,5} -> sorted {3,5,9}; odd columns untouched.
	want := []float64{3, 1, 5, 2, 9}
	for j, v := range want {
		if s.At(0, j) != v {
			t.Fatalf("col %d = %g, want %g (row %v)", j, s.At(0, j), v, s.Row(0))
		}
	}
}

func TestIsConsistent(t *testing.T) {
	if !mustMatrix(t, [][]float64{{1, 2, 3}, {4, 5, 6}}).IsConsistent() {
		t.Error("sorted matrix reported inconsistent")
	}
	if mustMatrix(t, [][]float64{{1, 2, 3}, {6, 5, 4}}).IsConsistent() {
		t.Error("reversed second row reported consistent")
	}
	// Column permutation of a consistent matrix is still consistent.
	if !mustMatrix(t, [][]float64{{2, 1, 3}, {5, 4, 6}}).IsConsistent() {
		t.Error("permuted consistent matrix reported inconsistent")
	}
}

func TestConsistencyString(t *testing.T) {
	if Consistent.String() != "consistent" || Inconsistent.String() != "inconsistent" ||
		SemiConsistent.String() != "semi-consistent" {
		t.Fatal("Consistency labels wrong")
	}
	if !strings.Contains(Consistency(42).String(), "42") {
		t.Fatal("unknown consistency label should embed the value")
	}
}

func TestGenerateRangeShapeAndBounds(t *testing.T) {
	src := rng.New(1)
	m, err := GenerateRange(RangeParams{Tasks: 20, Machines: 8, TaskHet: 100, MachineHet: 10}, src)
	if err != nil {
		t.Fatalf("GenerateRange: %v", err)
	}
	if m.Tasks() != 20 || m.Machines() != 8 {
		t.Fatalf("shape = %dx%d", m.Tasks(), m.Machines())
	}
	s := m.ComputeStats()
	if s.Min < 1 || s.Max >= 100*10 {
		t.Fatalf("values out of method bounds: min=%g max=%g", s.Min, s.Max)
	}
}

func TestGenerateRangeDeterministic(t *testing.T) {
	p := RangeParams{Tasks: 5, Machines: 3, TaskHet: 100, MachineHet: 10}
	a, _ := GenerateRange(p, rng.New(7))
	b, _ := GenerateRange(p, rng.New(7))
	if !a.Equal(b) {
		t.Fatal("GenerateRange is not deterministic for a fixed seed")
	}
}

func TestGenerateRangeErrors(t *testing.T) {
	src := rng.New(1)
	bad := []RangeParams{
		{Tasks: 0, Machines: 1, TaskHet: 2, MachineHet: 2},
		{Tasks: 1, Machines: 0, TaskHet: 2, MachineHet: 2},
		{Tasks: 1, Machines: 1, TaskHet: 1, MachineHet: 2},
		{Tasks: 1, Machines: 1, TaskHet: 2, MachineHet: 0.5},
	}
	for i, p := range bad {
		if _, err := GenerateRange(p, src); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestGenerateRangeConsistent(t *testing.T) {
	src := rng.New(2)
	m, err := GenerateRange(RangeParams{Tasks: 30, Machines: 6, TaskHet: 100, MachineHet: 10, Consistency: Consistent}, src)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsConsistent() {
		t.Fatal("requested consistent matrix is not consistent")
	}
}

func TestGenerateCVBMoments(t *testing.T) {
	src := rng.New(3)
	m, err := GenerateCVB(CVBParams{Tasks: 400, Machines: 16, TaskMean: 1000, TaskCV: 0.3, MachineCV: 0.3}, src)
	if err != nil {
		t.Fatal(err)
	}
	s := m.ComputeStats()
	if math.Abs(s.Mean-1000) > 100 {
		t.Fatalf("CVB mean = %g, want about 1000", s.Mean)
	}
	if s.MachineCV < 0.2 || s.MachineCV > 0.4 {
		t.Fatalf("CVB machine CV = %g, want about 0.3", s.MachineCV)
	}
}

func TestGenerateCVBErrors(t *testing.T) {
	src := rng.New(1)
	bad := []CVBParams{
		{Tasks: 0, Machines: 1, TaskMean: 1, TaskCV: 1, MachineCV: 1},
		{Tasks: 1, Machines: 1, TaskMean: 0, TaskCV: 1, MachineCV: 1},
		{Tasks: 1, Machines: 1, TaskMean: 1, TaskCV: 0, MachineCV: 1},
		{Tasks: 1, Machines: 1, TaskMean: 1, TaskCV: 1, MachineCV: -1},
	}
	for i, p := range bad {
		if _, err := GenerateCVB(p, src); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestAllClassesTwelveDistinct(t *testing.T) {
	cs := AllClasses()
	if len(cs) != 12 {
		t.Fatalf("AllClasses returned %d classes, want 12", len(cs))
	}
	seen := make(map[string]bool)
	for _, c := range cs {
		if seen[c.Label()] {
			t.Fatalf("duplicate class label %q", c.Label())
		}
		seen[c.Label()] = true
	}
}

func TestClassLabel(t *testing.T) {
	c := Class{HighTaskHet: true, HighMachineHet: false, Consistency: SemiConsistent}
	if got := c.Label(); got != "hilo-s" {
		t.Fatalf("Label = %q, want hilo-s", got)
	}
}

func TestGenerateClassHonorsConsistency(t *testing.T) {
	for _, c := range AllClasses() {
		m, err := GenerateClass(c, 20, 5, rng.New(9))
		if err != nil {
			t.Fatalf("%s: %v", c.Label(), err)
		}
		if c.Consistency == Consistent && !m.IsConsistent() {
			t.Errorf("%s: matrix not consistent", c.Label())
		}
	}
}

func TestGenerateClassHeterogeneityOrdering(t *testing.T) {
	// High task heterogeneity should, on average, produce a larger value
	// spread than low task heterogeneity.
	hi := Class{HighTaskHet: true, HighMachineHet: true, Consistency: Inconsistent}
	lo := Class{HighTaskHet: false, HighMachineHet: false, Consistency: Inconsistent}
	mHi, _ := GenerateClass(hi, 200, 8, rng.New(10))
	mLo, _ := GenerateClass(lo, 200, 8, rng.New(10))
	if mHi.ComputeStats().Max <= mLo.ComputeStats().Max {
		t.Fatal("high-heterogeneity class did not produce a larger max value")
	}
}

func TestPerturbZeroCVIsIdentity(t *testing.T) {
	m := mustMatrix(t, [][]float64{{1, 2}, {3, 4}})
	p, err := m.Perturb(0, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(p) {
		t.Fatal("cv=0 perturbation changed the matrix")
	}
	// And it must be a copy, not an alias.
	if p == m {
		t.Fatal("perturbation returned the receiver")
	}
}

func TestPerturbMomentsAndValidity(t *testing.T) {
	vs := make([][]float64, 200)
	for i := range vs {
		vs[i] = []float64{100, 50}
	}
	m := mustMatrix(t, vs)
	p, err := m.Perturb(0.2, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	// Every perturbed entry stays positive; the column means stay near the
	// estimates.
	sum0 := 0.0
	for i := 0; i < p.Tasks(); i++ {
		if p.At(i, 0) <= 0 || p.At(i, 1) <= 0 {
			t.Fatal("perturbation produced a non-positive ETC")
		}
		sum0 += p.At(i, 0)
	}
	mean0 := sum0 / float64(p.Tasks())
	if mean0 < 90 || mean0 > 110 {
		t.Fatalf("perturbed column mean %g, want near 100", mean0)
	}
}

func TestPerturbRejectsNegativeCV(t *testing.T) {
	m := mustMatrix(t, [][]float64{{1}})
	if _, err := m.Perturb(-0.1, rng.New(1)); err == nil {
		t.Fatal("negative cv accepted")
	}
}

func TestPerturbDeterministicPerSeed(t *testing.T) {
	m := mustMatrix(t, [][]float64{{5, 7}, {3, 9}})
	a, _ := m.Perturb(0.3, rng.New(9))
	b, _ := m.Perturb(0.3, rng.New(9))
	if !a.Equal(b) {
		t.Fatal("perturbation not reproducible per seed")
	}
}

func TestPerturbExtremeCVStaysPositive(t *testing.T) {
	vs := make([][]float64, 100)
	for i := range vs {
		vs[i] = []float64{1e-6, 1e6}
	}
	m := mustMatrix(t, vs)
	p, err := m.Perturb(10, rng.New(3)) // alpha = 0.01: deep in the boost regime
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.Tasks(); i++ {
		for j := 0; j < p.Machines(); j++ {
			if !(p.At(i, j) > 0) {
				t.Fatalf("entry [%d][%d] = %g violates the positive invariant", i, j, p.At(i, j))
			}
		}
	}
}
