// Package sched models the heterogeneous-computing scheduling problem of the
// paper: a set of independent tasks mapped offline onto machines with known
// ETC values and initial ready times.
//
// The central types are Instance (an immutable problem: ETC matrix plus
// initial ready times), Mapping (an assignment of every task to a machine),
// and Schedule (a mapping evaluated against an instance: per-machine
// completion times, makespan, metrics). Completion time follows the paper's
// Equation 1: CT(t, m) = ETC(t, m) + RT(m), with RT updated as tasks
// accumulate on a machine.
package sched

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/etc"
)

// Instance is an immutable scheduling problem.
type Instance struct {
	m     *etc.Matrix
	ready []float64 // initial ready time per machine
}

// NewInstance builds an instance from an ETC matrix and initial ready times.
// ready may be nil, meaning all machines start at time zero. Ready times
// must be finite and non-negative.
func NewInstance(m *etc.Matrix, ready []float64) (*Instance, error) {
	in := new(Instance)
	if err := NewInstanceInto(in, m, ready); err != nil {
		return nil, err
	}
	return in, nil
}

// NewInstanceInto is NewInstance writing into dst, reusing its ready-time
// storage when it has room for every machine. The instance previously held
// in dst is overwritten, so nothing may retain it across calls. On error
// dst is left unchanged.
func NewInstanceInto(dst *Instance, m *etc.Matrix, ready []float64) error {
	if m == nil {
		return errors.New("sched: nil ETC matrix")
	}
	if ready != nil {
		if len(ready) != m.Machines() {
			return fmt.Errorf("sched: %d ready times for %d machines", len(ready), m.Machines())
		}
		for i, v := range ready {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("sched: ready time %d = %g is not a finite non-negative value", i, v)
			}
		}
	}
	r := dst.ready
	if cap(r) < m.Machines() {
		r = slices.Grow([]float64(nil), m.Machines())
	}
	r = r[:m.Machines()]
	if ready != nil {
		copy(r, ready)
	} else {
		clear(r)
	}
	dst.m, dst.ready = m, r
	return nil
}

// MustInstance is NewInstance but panics on error; for constants and tests.
func MustInstance(m *etc.Matrix, ready []float64) *Instance {
	in, err := NewInstance(m, ready)
	if err != nil {
		panic(err)
	}
	return in
}

// Footprint returns the bytes of in's own buffer, its ready times, which
// NewInstanceInto and RestrictInto grow to their allocation's whole size
// class; its matrix reports its own (etc.Matrix.Footprint).
func (in *Instance) Footprint() int { return 8 * cap(in.ready) }

// ETC returns the instance's matrix.
func (in *Instance) ETC() *etc.Matrix { return in.m }

// Tasks returns the number of tasks.
func (in *Instance) Tasks() int { return in.m.Tasks() }

// Machines returns the number of machines.
func (in *Instance) Machines() int { return in.m.Machines() }

// Ready returns machine m's initial ready time.
func (in *Instance) Ready(m int) float64 { return in.ready[m] }

// ReadyTimes returns a copy of all initial ready times.
func (in *Instance) ReadyTimes() []float64 { return in.ReadyTimesInto(nil) }

// ReadyTimesInto is ReadyTimes writing into dst, which is reallocated only
// when shorter than the machine count, to its allocation's whole size
// class, so that an owner counting its buffers by capacity counts every
// byte allocated (as Completions does).
func (in *Instance) ReadyTimesInto(dst []float64) []float64 {
	if cap(dst) < len(in.ready) {
		dst = slices.Grow([]float64(nil), len(in.ready))
	}
	dst = dst[:len(in.ready)]
	copy(dst, in.ready)
	return dst
}

// Restrict returns the sub-instance over the given task and machine index
// sets (in the receiver's coordinates), carrying the retained machines'
// initial ready times.
func (in *Instance) Restrict(tasks, machines []int) (*Instance, error) {
	sub, err := in.m.SubMatrix(tasks, machines)
	if err != nil {
		return nil, err
	}
	r := make([]float64, len(machines))
	for i, mm := range machines {
		r[i] = in.ready[mm]
	}
	return &Instance{m: sub, ready: r}, nil
}

// RestrictInto is Restrict writing into dst, reusing its matrix and ready
// storage when large enough: the iterative engine restricts one instance
// to shrinking active sets into a single buffer per trace. tasks and
// machines must be strictly ascending. dst must not be the receiver; the
// instance previously written into it is overwritten, so nothing may
// retain it across calls.
func (in *Instance) RestrictInto(dst *Instance, tasks, machines []int) error {
	if dst.m == nil {
		dst.m = new(etc.Matrix)
	}
	if err := in.m.SubMatrixInto(dst.m, tasks, machines); err != nil {
		return err
	}
	if cap(dst.ready) < len(machines) {
		dst.ready = slices.Grow([]float64(nil), len(machines))
	}
	dst.ready = dst.ready[:len(machines)]
	for i, mm := range machines {
		dst.ready[i] = in.ready[mm]
	}
	return nil
}

// Mapping assigns every task to a machine: Assign[t] is task t's machine.
type Mapping struct {
	Assign []int
}

// NewMapping returns a mapping with all assignments set to -1 (unmapped),
// for incremental construction by heuristics.
func NewMapping(tasks int) Mapping {
	a := make([]int, tasks)
	for i := range a {
		a[i] = -1
	}
	return Mapping{Assign: a}
}

// Clone returns a deep copy.
func (mp Mapping) Clone() Mapping {
	a := make([]int, len(mp.Assign))
	copy(a, mp.Assign)
	return Mapping{Assign: a}
}

// Equal reports whether two mappings are identical.
func (mp Mapping) Equal(o Mapping) bool {
	if len(mp.Assign) != len(o.Assign) {
		return false
	}
	for i, v := range mp.Assign {
		if o.Assign[i] != v {
			return false
		}
	}
	return true
}

// Complete reports whether every task is assigned.
func (mp Mapping) Complete() bool {
	for _, v := range mp.Assign {
		if v < 0 {
			return false
		}
	}
	return true
}

// Validate checks the mapping against an instance: complete and in range.
func (mp Mapping) Validate(in *Instance) error {
	if len(mp.Assign) != in.Tasks() {
		return fmt.Errorf("sched: mapping covers %d tasks, instance has %d", len(mp.Assign), in.Tasks())
	}
	for t, m := range mp.Assign {
		if m < 0 || m >= in.Machines() {
			return fmt.Errorf("sched: task %d assigned to machine %d, out of range [0,%d)", t, m, in.Machines())
		}
	}
	return nil
}

// TasksOn returns the tasks assigned to machine m, in task-index order.
func (mp Mapping) TasksOn(m int) []int {
	var ts []int
	for t, mm := range mp.Assign {
		if mm == m {
			ts = append(ts, t)
		}
	}
	return ts
}

// Schedule is a mapping evaluated against an instance.
type Schedule struct {
	Instance *Instance
	Mapping  Mapping
	// Completion[m] is machine m's finishing time: its initial ready time
	// plus the ETCs of all tasks assigned to it (order-independent, since
	// tasks are independent and machines run one task at a time).
	Completion []float64
	// TaskFinish[t] is the completion time of task t assuming tasks execute
	// on each machine in ascending task-index order (the order heuristics
	// append them is not part of the paper's model; per-machine totals are).
	TaskFinish []float64
}

// Evaluate computes the schedule for a mapping on an instance. It returns an
// error if the mapping is invalid.
func Evaluate(in *Instance, mp Mapping) (*Schedule, error) {
	if err := mp.Validate(in); err != nil {
		return nil, err
	}
	s := &Schedule{
		Instance:   in,
		Mapping:    mp.Clone(),
		Completion: in.ReadyTimes(),
		TaskFinish: make([]float64, in.Tasks()),
	}
	for t, m := range mp.Assign {
		s.Completion[m] += in.ETC().At(t, m)
		s.TaskFinish[t] = s.Completion[m]
	}
	return s, nil
}

// Completions writes into dst the Completion vector Evaluate computes for
// mp, bit for bit — the same additions in the same task order — without
// cloning the mapping or building TaskFinish, and returns it; dst is
// reallocated only when shorter than the machine count, as ReadyTimesInto
// reallocates. It returns an error if the mapping is invalid.
func Completions(in *Instance, mp Mapping, dst []float64) ([]float64, error) {
	if err := mp.Validate(in); err != nil {
		return nil, err
	}
	if cap(dst) < len(in.ready) {
		dst = slices.Grow([]float64(nil), len(in.ready))
	}
	dst = dst[:len(in.ready)]
	copy(dst, in.ready)
	for t, m := range mp.Assign {
		dst[m] += in.m.At(t, m)
	}
	return dst, nil
}

// Makespan returns the largest machine completion time.
func (s *Schedule) Makespan() float64 { return Makespan(s.Completion) }

// Makespan returns the largest entry of a completion vector.
func Makespan(completion []float64) float64 {
	ms := math.Inf(-1)
	for _, c := range completion {
		ms = math.Max(ms, c)
	}
	return ms
}

// MakespanMachine returns the index of the machine that finishes last,
// breaking ties toward the lowest index (the deterministic convention used
// throughout this repository), along with its completion time.
func (s *Schedule) MakespanMachine() (machine int, completion float64) {
	return MakespanMachine(s.Completion)
}

// MakespanMachine is Schedule.MakespanMachine over a completion vector.
func MakespanMachine(completion []float64) (machine int, makespan float64) {
	machine, makespan = 0, completion[0]
	for m := 1; m < len(completion); m++ {
		if completion[m] > makespan {
			machine, makespan = m, completion[m]
		}
	}
	return machine, makespan
}

// MinCompletion returns the smallest machine completion time.
func (s *Schedule) MinCompletion() float64 {
	mn := math.Inf(1)
	for _, c := range s.Completion {
		mn = math.Min(mn, c)
	}
	return mn
}

// MeanCompletion returns the mean machine completion time.
func (s *Schedule) MeanCompletion() float64 {
	sum := 0.0
	for _, c := range s.Completion {
		sum += c
	}
	return sum / float64(len(s.Completion))
}

// BalanceIndex returns min ready / max ready over machine completion times,
// the load-balance index used by the Switching Algorithm. By convention it
// is 0 when the maximum is 0 (nothing scheduled anywhere).
func (s *Schedule) BalanceIndex() float64 {
	return BalanceIndex(s.Completion)
}

// BalanceIndex computes min/max over a ready-time vector, 0 if max is 0.
func BalanceIndex(ready []float64) float64 {
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, r := range ready {
		// The builtins give math.Min's and math.Max's results, NaN and
		// signed zeros included, without their out-of-line calls.
		mn = min(mn, r)
		mx = max(mx, r)
	}
	if mx == 0 {
		return 0
	}
	return mn / mx
}

// Utilization returns, per machine, busy time divided by makespan (busy time
// excludes the initial ready time). Machines idle for the whole horizon have
// utilization 0. Returns nil if makespan is 0.
func (s *Schedule) Utilization() []float64 {
	ms := s.Makespan()
	if ms == 0 {
		return nil
	}
	u := make([]float64, len(s.Completion))
	for m, c := range s.Completion {
		u[m] = (c - s.Instance.Ready(m)) / ms
	}
	return u
}

// String renders per-machine loads compactly for logs and test failures.
func (s *Schedule) String() string {
	var b strings.Builder
	msMachine, ms := s.MakespanMachine()
	fmt.Fprintf(&b, "schedule makespan=%.4g (machine %d)\n", ms, msMachine)
	for m, c := range s.Completion {
		tasks := s.Mapping.TasksOn(m)
		fmt.Fprintf(&b, "  m%-2d CT=%-8.4g tasks=%v\n", m, c, tasks)
	}
	return b.String()
}

// CompletionsSorted returns the machine completion times in ascending order,
// useful for comparing schedules up to machine permutation.
func (s *Schedule) CompletionsSorted() []float64 {
	cs := make([]float64, len(s.Completion))
	copy(cs, s.Completion)
	sort.Float64s(cs)
	return cs
}
