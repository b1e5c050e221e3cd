// Package etc models the estimated-time-to-compute (ETC) matrix that drives
// every mapping decision in this repository.
//
// An ETC matrix has one row per task and one column per machine;
// ETC[t][m] is the estimated execution time of task t on machine m when run
// alone (no multitasking, per the paper's model). The package also provides
// the two standard synthetic generation methods from the heterogeneous
// computing literature — the range-based method (Braun et al.) and the
// CVB method (Ali et al.) — together with the consistency transformations
// that yield the canonical twelve workload classes.
package etc

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/rng"
)

// Matrix is an ETC matrix. Values[t][m] is the estimated time to compute
// task t on machine m. A Matrix is immutable by convention: heuristics never
// modify one. The one exception is a matrix owned by its writer as
// SubMatrixInto's destination: the iterative engine rewrites its restricted
// sub-instance in place between heuristic runs, so a heuristic must not
// retain a matrix (or its instance) after its Map call returns.
type Matrix struct {
	values [][]float64
	buf    []float64 // SubMatrixInto's reusable backing array
}

// New builds a Matrix from values, validating shape and entries. It copies
// the data, so the caller may reuse the argument. Every row must have the
// same non-zero length and every entry must be positive and finite: the
// paper's model has no zero-cost and no infeasible task-machine pairs.
func New(values [][]float64) (*Matrix, error) {
	if len(values) == 0 {
		return nil, errors.New("etc: matrix has no tasks")
	}
	cols := len(values[0])
	if cols == 0 {
		return nil, errors.New("etc: matrix has no machines")
	}
	for t, row := range values {
		if len(row) != cols {
			return nil, fmt.Errorf("etc: row %d has %d entries, want %d", t, len(row), cols)
		}
		for m, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return nil, fmt.Errorf("etc: entry [%d][%d] = %g is not a positive finite value", t, m, v)
			}
		}
	}
	return &Matrix{values: copyRows(values, cols)}, nil
}

// Adopt builds a tasks×machines Matrix over cells, row-major, validating
// shape and entries as New does, but without a copy: the matrix takes
// ownership of cells, which the caller must not modify afterwards. It is
// for callers that already hold the values in one exact-size array, such
// as a service decoding an instance from its canonical request key.
func Adopt(tasks, machines int, cells []float64) (*Matrix, error) {
	switch {
	case tasks <= 0:
		return nil, errors.New("etc: matrix has no tasks")
	case machines <= 0:
		return nil, errors.New("etc: matrix has no machines")
	case len(cells) != tasks*machines:
		return nil, fmt.Errorf("etc: %d cells for a %dx%d matrix", len(cells), tasks, machines)
	}
	for i, v := range cells {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return nil, fmt.Errorf("etc: entry [%d][%d] = %g is not a positive finite value", i/machines, i%machines, v)
		}
	}
	vs := make([][]float64, tasks)
	for t := range vs {
		vs[t] = cells[t*machines : (t+1)*machines : (t+1)*machines]
	}
	return &Matrix{values: vs}, nil
}

// copyRows deep-copies a rectangular matrix into one backing array. Each
// row is capacity-capped, so an append to one cannot write into the next.
func copyRows(values [][]float64, cols int) [][]float64 {
	vs := make([][]float64, len(values))
	backing := make([]float64, len(values)*cols)
	for t, row := range values {
		vs[t] = backing[t*cols : (t+1)*cols : (t+1)*cols]
		copy(vs[t], row)
	}
	return vs
}

// MustNew is New but panics on error. Intended for pinned constants and
// tests, where a malformed matrix is a programming error.
func MustNew(values [][]float64) *Matrix {
	m, err := New(values)
	if err != nil {
		panic(err)
	}
	return m
}

// Tasks returns the number of tasks (rows).
func (m *Matrix) Tasks() int { return len(m.values) }

// Machines returns the number of machines (columns).
func (m *Matrix) Machines() int { return len(m.values[0]) }

// At returns ETC[task][machine].
func (m *Matrix) At(task, machine int) float64 { return m.values[task][machine] }

// Row returns a copy of task t's row.
func (m *Matrix) Row(task int) []float64 {
	row := make([]float64, len(m.values[task]))
	copy(row, m.values[task])
	return row
}

// Values returns a deep copy of the underlying matrix.
func (m *Matrix) Values() [][]float64 { return copyRows(m.values, m.Machines()) }

// SubMatrix returns the matrix restricted to the given task and machine
// index sets, in the given order. It is how the iterative engine removes the
// makespan machine and its tasks: indices refer to the receiver's
// coordinates. It returns an error if any index is out of range or repeated,
// or if either set is empty.
func (m *Matrix) SubMatrix(tasks, machines []int) (*Matrix, error) {
	if len(tasks) == 0 {
		return nil, errors.New("etc: submatrix with no tasks")
	}
	if len(machines) == 0 {
		return nil, errors.New("etc: submatrix with no machines")
	}
	if err := checkIndexSet(tasks, m.Tasks(), "task"); err != nil {
		return nil, err
	}
	if err := checkIndexSet(machines, m.Machines(), "machine"); err != nil {
		return nil, err
	}
	// One backing array for all rows: Restrict runs once per engine
	// iteration, so the submatrix copy is on the technique's hot path.
	vs := make([][]float64, len(tasks))
	backing := make([]float64, len(tasks)*len(machines))
	for i, t := range tasks {
		row := backing[i*len(machines) : (i+1)*len(machines) : (i+1)*len(machines)]
		src := m.values[t]
		for j, mm := range machines {
			row[j] = src[mm]
		}
		vs[i] = row
	}
	return &Matrix{values: vs}, nil
}

// SubMatrixInto is SubMatrix writing into dst, whose storage it reuses when
// large enough: a caller restricting one matrix to shrinking index sets
// allocates once. tasks and machines must be non-empty, strictly ascending
// and in range. dst must not be the receiver, and any matrix previously
// written into dst is overwritten.
func (m *Matrix) SubMatrixInto(dst *Matrix, tasks, machines []int) error {
	if dst == m {
		return errors.New("etc: submatrix destination is its source")
	}
	if err := checkAscending(tasks, m.Tasks(), "task"); err != nil {
		return err
	}
	if err := checkAscending(machines, m.Machines(), "machine"); err != nil {
		return err
	}
	nT, nM := len(tasks), len(machines)
	if cap(dst.buf) < nT*nM {
		dst.buf = make([]float64, nT*nM)
	}
	if cap(dst.values) < nT {
		dst.values = make([][]float64, nT)
	}
	dst.values = dst.values[:nT]
	for i, t := range tasks {
		row := dst.buf[i*nM : (i+1)*nM : (i+1)*nM]
		src := m.values[t]
		for j, mm := range machines {
			row[j] = src[mm]
		}
		dst.values[i] = row
	}
	return nil
}

// checkAscending is checkIndexSet for a strictly ascending set, which needs
// no scratch to detect repeats.
func checkAscending(idx []int, n int, kind string) error {
	if len(idx) == 0 {
		return fmt.Errorf("etc: submatrix with no %ss", kind)
	}
	prev := -1
	for _, i := range idx {
		if i < 0 || i >= n {
			return fmt.Errorf("etc: %s index %d out of range [0,%d)", kind, i, n)
		}
		if i <= prev {
			return fmt.Errorf("etc: %s indices not strictly ascending at %d", kind, i)
		}
		prev = i
	}
	return nil
}

func checkIndexSet(idx []int, n int, kind string) error {
	seen := make([]bool, n)
	for _, i := range idx {
		if i < 0 || i >= n {
			return fmt.Errorf("etc: %s index %d out of range [0,%d)", kind, i, n)
		}
		if seen[i] {
			return fmt.Errorf("etc: duplicate %s index %d", kind, i)
		}
		seen[i] = true
	}
	return nil
}

// MinMachine returns the machine with the smallest ETC for task t, breaking
// ties toward the lowest machine index, along with that minimum value.
func (m *Matrix) MinMachine(task int) (machine int, value float64) {
	row := m.values[task]
	machine, value = 0, row[0]
	for j := 1; j < len(row); j++ {
		if row[j] < value {
			machine, value = j, row[j]
		}
	}
	return machine, value
}

// Equal reports whether two matrices have identical shape and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Tasks() != o.Tasks() || m.Machines() != o.Machines() {
		return false
	}
	for t, row := range m.values {
		for j, v := range row {
			if o.values[t][j] != v {
				return false
			}
		}
	}
	return true
}

// String renders the matrix as a compact aligned grid, useful in test
// failures and experiment logs.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ETC %d tasks x %d machines\n", m.Tasks(), m.Machines())
	for t, row := range m.values {
		fmt.Fprintf(&b, "t%-3d", t)
		for _, v := range row {
			fmt.Fprintf(&b, " %8.3f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Stats summarises the heterogeneity of a matrix.
type Stats struct {
	Min, Max, Mean float64
	// TaskCV is the mean over machines of the coefficient of variation down
	// each column (task heterogeneity); MachineCV is the mean over tasks of
	// the CV along each row (machine heterogeneity).
	TaskCV, MachineCV float64
}

// ComputeStats computes heterogeneity statistics for the matrix.
func (m *Matrix) ComputeStats() Stats {
	s := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	total, count := 0.0, 0
	for _, row := range m.values {
		for _, v := range row {
			s.Min = math.Min(s.Min, v)
			s.Max = math.Max(s.Max, v)
			total += v
			count++
		}
	}
	s.Mean = total / float64(count)

	colCV := 0.0
	for j := 0; j < m.Machines(); j++ {
		col := make([]float64, m.Tasks())
		for t := range m.values {
			col[t] = m.values[t][j]
		}
		colCV += cv(col)
	}
	s.TaskCV = colCV / float64(m.Machines())

	rowCV := 0.0
	for _, row := range m.values {
		rowCV += cv(row)
	}
	s.MachineCV = rowCV / float64(m.Tasks())
	return s
}

func cv(xs []float64) float64 {
	n := float64(len(xs))
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if mean == 0 {
		return 0
	}
	variance := 0.0
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	variance /= n
	return math.Sqrt(variance) / mean
}

// Consistency is the machine-ordering structure of a matrix, following the
// standard taxonomy: in a consistent matrix, if machine a is faster than
// machine b for one task it is faster for all tasks; inconsistent matrices
// have no such structure; semi-consistent matrices have a consistent
// sub-block.
type Consistency int

const (
	Inconsistent Consistency = iota
	Consistent
	SemiConsistent
)

// String returns the conventional class label.
func (c Consistency) String() string {
	switch c {
	case Inconsistent:
		return "inconsistent"
	case Consistent:
		return "consistent"
	case SemiConsistent:
		return "semi-consistent"
	default:
		return fmt.Sprintf("Consistency(%d)", int(c))
	}
}

// MakeConsistent returns a copy of the matrix with each row sorted
// ascending, the standard construction of a consistent matrix: machine 0 is
// the fastest for every task.
func (m *Matrix) MakeConsistent() *Matrix {
	vs := m.Values()
	for _, row := range vs {
		sort.Float64s(row)
	}
	return &Matrix{values: vs}
}

// MakeSemiConsistent returns a copy in which the even-indexed columns of
// each row are sorted among themselves (the standard construction: a
// consistent sub-matrix embedded in an otherwise inconsistent one).
func (m *Matrix) MakeSemiConsistent() *Matrix {
	vs := m.Values()
	for _, row := range vs {
		var evens []float64
		for j := 0; j < len(row); j += 2 {
			evens = append(evens, row[j])
		}
		sort.Float64s(evens)
		for i, j := 0, 0; j < len(row); i, j = i+1, j+2 {
			row[j] = evens[i]
		}
	}
	return &Matrix{values: vs}
}

// IsConsistent reports whether the matrix is consistent: some single machine
// ordering ranks every row. Equivalently, sorting machines by any one row's
// values must sort every row (with ties allowed).
func (m *Matrix) IsConsistent() bool {
	// Order machines by the first row, then verify monotonicity everywhere.
	order := make([]int, m.Machines())
	for j := range order {
		order[j] = j
	}
	first := m.values[0]
	sort.SliceStable(order, func(a, b int) bool { return first[order[a]] < first[order[b]] })
	for _, row := range m.values {
		for k := 1; k < len(order); k++ {
			if row[order[k-1]] > row[order[k]] {
				return false
			}
		}
	}
	return true
}

// Perturb returns a copy of the matrix in which every entry is replaced by
// a gamma-distributed "actual" execution time with mean equal to the
// estimate and the given coefficient of variation. It models ETC estimation
// error: the paper's model assumes ETC values are known, and the surrounding
// literature (task profiling, analytical benchmarking) obtains them with
// error; Perturb lets experiments measure how mapping decisions survive that
// error. cv = 0 returns an identical copy.
func (m *Matrix) Perturb(cv float64, src *rng.Source) (*Matrix, error) {
	if cv < 0 {
		return nil, fmt.Errorf("etc: negative perturbation cv %g", cv)
	}
	vs := m.Values()
	if cv == 0 {
		return &Matrix{values: vs}, nil
	}
	alpha := 1 / (cv * cv)
	for _, row := range vs {
		for j, v := range row {
			sample := src.Gamma(alpha, v/alpha)
			// Guard the Matrix invariant (strictly positive entries): for
			// extreme cv the alpha<1 boost can underflow to zero.
			if !(sample > 0) {
				sample = v * 1e-12
			}
			row[j] = sample
		}
	}
	return &Matrix{values: vs}, nil
}
