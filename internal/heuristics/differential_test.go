package heuristics

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/etc"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tiebreak"
)

// Differential suite: the incremental completion-time kernel (kernel.go)
// must be *bit-identical* to the seed implementations kept in reference.go —
// the same mapping (exact Equal, not approx) on every instance, for every
// tie-break policy, because the candidate sets presented to the policy must
// match element for element. Instances deliberately mix tie-free float
// workloads with small-integer workloads where ties are pervasive, zero and
// non-zero initial ready times, and degenerate shapes (1 task, 1 machine).
// Each suite's corpus ends with one large tie-heavy grid (tieGridTrial), so
// long candidate lists and many Sufferage passes are pinned too.

// tieGridTrial is the trial number of the large input every differential
// suite appends to its random corpus: 512×16 on a small-integer grid with
// non-zero ready times, where exact completion-time ties are everywhere.
const tieGridTrial = -1

// diffTrials returns the random trials 0, step, 2·step, ... (n of them)
// followed by tieGridTrial.
func diffTrials(n, step int) []int {
	trials := make([]int, 0, n+1)
	for i := 0; i < n; i++ {
		trials = append(trials, i*step)
	}
	return append(trials, tieGridTrial)
}

// diffInstance draws a random instance for trial; even trials use a small
// integer grid so exact completion-time ties are common, odd trials use the
// range-based float generator where ties are measure-zero. tieGridTrial is
// the fixed 512×16 integer grid.
func diffInstance(t *testing.T, trial int) *sched.Instance {
	t.Helper()
	if trial == tieGridTrial {
		return tieGridInstance(t)
	}
	src := rng.New(uint64(1000 + trial))
	tasks := 1 + src.Intn(24)
	machines := 1 + src.Intn(8)
	var m *etc.Matrix
	if trial%2 == 0 {
		vs := make([][]float64, tasks)
		for i := range vs {
			row := make([]float64, machines)
			for j := range row {
				row[j] = float64(1 + src.Intn(5)) // heavy exact ties
			}
			vs[i] = row
		}
		m = etc.MustNew(vs)
	} else {
		var err error
		m, err = etc.GenerateRange(etc.RangeParams{
			Tasks: tasks, Machines: machines, TaskHet: 100, MachineHet: 10,
		}, src)
		if err != nil {
			t.Fatal(err)
		}
	}
	var ready []float64
	switch trial % 3 {
	case 0:
		ready = make([]float64, machines)
		for j := range ready {
			ready[j] = float64(src.Intn(4))
		}
	case 1:
		// The edge of the completion times' bit order (ctBits): ready
		// times of -0, whose pattern sorts after every positive one, +0
		// and subnormals, beside small integers.
		ready = make([]float64, machines)
		for j := range ready {
			ready[j] = edgeReady[src.Intn(len(edgeReady))]
		}
	}
	in, err := sched.NewInstance(m, ready)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// edgeReady are the ready times diffInstance draws for one trial in three:
// -0, +0, two subnormals, the least normal and two integers.
var edgeReady = []float64{math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 0x1p-1030, 0x1p-1022, 1, 2}

// tieGridInstance builds the tieGridTrial instance: 512×16, ETC values drawn
// from 1..8, ready times from 0..3.
func tieGridInstance(t *testing.T) *sched.Instance {
	t.Helper()
	const tasks, machines = 512, 16
	src := rng.New(uint64(7700 + tasks + machines))
	vs := make([][]float64, tasks)
	for i := range vs {
		row := make([]float64, machines)
		for j := range row {
			row[j] = float64(1 + src.Intn(8))
		}
		vs[i] = row
	}
	ready := make([]float64, machines)
	for j := range ready {
		ready[j] = float64(src.Intn(4))
	}
	in, err := sched.NewInstance(etc.MustNew(vs), ready)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// diffPolicies returns matched fresh policy pairs (one for the optimized
// run, one for the reference run): stateful policies consume randomness per
// Choose, so each side needs its own identically seeded instance.
func diffPolicies(trial int) map[string][2]tiebreak.Policy {
	seed := uint64(9000 + trial)
	return map[string][2]tiebreak.Policy{
		"first":         {tiebreak.First{}, tiebreak.First{}},
		"last":          {tiebreak.Last{}, tiebreak.Last{}},
		"seeded-random": {tiebreak.NewRandom(rng.New(seed)), tiebreak.NewRandom(rng.New(seed))},
	}
}

// TestDifferentialBatchHeuristics pins optimized == reference, exactly, for
// every batch heuristic across ~200 random instances plus the tie grid and
// all policies.
func TestDifferentialBatchHeuristics(t *testing.T) {
	type side struct {
		opt func(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error)
		ref func(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error)
	}
	cases := map[string]side{
		"min-min": {
			opt: MinMin{}.Map,
			ref: func(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
				return referenceGreedyTwoPhase(in, tb, false)
			},
		},
		"max-min": {
			opt: MaxMin{}.Map,
			ref: func(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
				return referenceGreedyTwoPhase(in, tb, true)
			},
		},
		"duplex": {
			opt: Duplex{}.Map,
			ref: referenceDuplex,
		},
		"sufferage": {
			opt: Sufferage{}.Map,
			ref: func(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
				mp, _, err := referenceSufferage(in, tb)
				return mp, err
			},
		},
	}
	for _, trial := range diffTrials(200, 1) {
		in := diffInstance(t, trial)
		for pname := range diffPolicies(trial) {
			for hname, s := range cases {
				// Fresh matched policies per heuristic, so the optimized and
				// reference sides always see aligned random streams.
				pp := diffPolicies(trial)[pname]
				got, err := s.opt(in, pp[0])
				if err != nil {
					t.Fatalf("trial %d %s/%s: optimized: %v", trial, hname, pname, err)
				}
				want, err := s.ref(in, pp[1])
				if err != nil {
					t.Fatalf("trial %d %s/%s: reference: %v", trial, hname, pname, err)
				}
				if !got.Equal(want) {
					t.Fatalf("trial %d %s/%s: optimized mapping %v != reference %v\n%dx%d instance",
						trial, hname, pname, got.Assign, want.Assign, in.Tasks(), in.Machines())
				}
			}
		}
	}
}

// referenceListOrder is the float-compare spec of the list-order
// heuristics (OLB, MET, MCT, KPB, SWA), as their seed implementations read:
// each task's candidates are minIndices over a freshly built row, and SWA's
// balance index folds math.Min and math.Max.
func referenceListOrder(h Heuristic, in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
	nT, nM := in.Tasks(), in.Machines()
	mp := sched.NewMapping(nT)
	ready := in.ReadyTimes()
	useMET := false
	for t := 0; t < nT; t++ {
		ct := completionRow(in, t, ready, make([]float64, nM))
		var m int
		switch h := h.(type) {
		case OLB:
			m = tb.Choose(minIndices(ready))
		case MET:
			m = tb.Choose(minIndices(in.ETC().Row(t)))
		case MCT:
			m = tb.Choose(minIndices(ct))
		case KPercentBest:
			subset := make([]int, h.SubsetSize(nM))
			bestSubset(in, t, make([]kpbCand, nM), subset)
			sub := make([]float64, len(subset))
			for i, mm := range subset {
				sub[i] = ct[mm]
			}
			var cands []int
			for _, i := range minIndices(sub) {
				cands = append(cands, subset[i])
			}
			m = tb.Choose(cands)
		case SWA:
			if t > 0 {
				mn, mx := math.Inf(1), math.Inf(-1)
				for _, r := range ready {
					mn, mx = math.Min(mn, r), math.Max(mx, r)
				}
				bi := 0.0
				if mx != 0 {
					bi = mn / mx
				}
				switch {
				case bi > h.High:
					useMET = true
				case bi < h.Low:
					useMET = false
				}
			}
			if t > 0 && useMET {
				m = tb.Choose(minIndices(in.ETC().Row(t)))
			} else {
				m = tb.Choose(minIndices(ct))
			}
		default:
			return sched.Mapping{}, fmt.Errorf("no list-order reference for %s", h.Name())
		}
		mp.Assign[t] = m
		ready[m] += in.ETC().At(t, m)
	}
	return mp, nil
}

// TestDifferentialListOrderHeuristics pins the list-order heuristics, whose
// completion-time scans compare bit patterns, to referenceListOrder's float
// compares: the same candidate sets in the same order under First, and the
// same mapping under every policy, on the corpus whose ready times include
// -0, +0 and subnormals.
func TestDifferentialListOrderHeuristics(t *testing.T) {
	for _, trial := range diffTrials(200, 1) {
		in := diffInstance(t, trial)
		for _, h := range []Heuristic{OLB{}, MET{}, MCT{}, KPercentBest{Percent: PaperKPercent}, SWA{Low: PaperSWALow, High: PaperSWAHigh}} {
			optRec := tiebreak.NewRecorder(tiebreak.First{})
			refRec := tiebreak.NewRecorder(tiebreak.First{})
			if _, err := h.Map(in, optRec); err != nil {
				t.Fatal(err)
			}
			if _, err := referenceListOrder(h, in, refRec); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(optRec.Ties, refRec.Ties) {
				t.Fatalf("trial %d %s: tie candidate sets diverge:\noptimized %v\nreference %v",
					trial, h.Name(), optRec.Ties, refRec.Ties)
			}
			for pname, pp := range diffPolicies(trial) {
				got, err := h.Map(in, pp[0])
				if err != nil {
					t.Fatal(err)
				}
				want, err := referenceListOrder(h, in, pp[1])
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("trial %d %s/%s: mapping %v != reference %v\n%dx%d instance, ready %v",
						trial, h.Name(), pname, got.Assign, want.Assign, in.Tasks(), in.Machines(), in.ReadyTimes())
				}
			}
		}
	}
}

// TestDifferentialTieCandidateSets goes one level deeper than mappings: the
// exact candidate sets presented to the policy must match, pair for pair —
// a kernel that found the same winner through differently ordered ties
// would still break scripted policies and the paper's tie-path search.
func TestDifferentialTieCandidateSets(t *testing.T) {
	for _, trial := range diffTrials(40, 2) { // even trials: tie-heavy integer grids
		in := diffInstance(t, trial)
		for hname, pair := range map[string][2]func(*sched.Instance, tiebreak.Policy) (sched.Mapping, error){
			"min-min": {MinMin{}.Map, func(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
				return referenceGreedyTwoPhase(in, tb, false)
			}},
			"max-min": {MaxMin{}.Map, func(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
				return referenceGreedyTwoPhase(in, tb, true)
			}},
			"sufferage": {Sufferage{}.Map, func(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
				mp, _, err := referenceSufferage(in, tb)
				return mp, err
			}},
		} {
			optRec := tiebreak.NewRecorder(tiebreak.First{})
			refRec := tiebreak.NewRecorder(tiebreak.First{})
			if _, err := pair[0](in, optRec); err != nil {
				t.Fatal(err)
			}
			if _, err := pair[1](in, refRec); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(optRec.Ties, refRec.Ties) {
				t.Fatalf("trial %d %s: tie candidate sets diverge:\noptimized %v\nreference %v",
					trial, hname, optRec.Ties, refRec.Ties)
			}
		}
	}
}

// TestDifferentialSufferageTrace pins the optimized trace path against the
// reference decision-for-decision (the golden file
// cmd/itersched/testdata/paper_sufferage.golden renders from this trace).
func TestDifferentialSufferageTrace(t *testing.T) {
	for _, trial := range diffTrials(60, 1) {
		in := diffInstance(t, trial)
		got, gotPasses, err := (Sufferage{}).MapTrace(in, tiebreak.First{})
		if err != nil {
			t.Fatal(err)
		}
		want, wantPasses, err := referenceSufferage(in, tiebreak.First{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: mapping %v != %v", trial, got.Assign, want.Assign)
		}
		if !reflect.DeepEqual(gotPasses, wantPasses) {
			t.Fatalf("trial %d: passes diverge\noptimized %+v\nreference %+v", trial, gotPasses, wantPasses)
		}
	}
}

// TestDuplexMapSelectWinner checks MapSelectInto's reported winner against
// an independent evaluation of both sides, on one Scratch reused by every
// trial, with the Min-Min half computed and given.
func TestDuplexMapSelectWinner(t *testing.T) {
	var sc Scratch
	for trial := 0; trial < 60; trial++ {
		in := diffInstance(t, trial)
		mp, winner, _, err := (Duplex{}).MapSelectInto(in, tiebreak.First{}, &sc, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		mn, err := (MinMin{}).Map(in, tiebreak.First{})
		if err != nil {
			t.Fatal(err)
		}
		mx, err := (MaxMin{}).Map(in, tiebreak.First{})
		if err != nil {
			t.Fatal(err)
		}
		smn, err := sched.Evaluate(in, mn)
		if err != nil {
			t.Fatal(err)
		}
		smx, err := sched.Evaluate(in, mx)
		if err != nil {
			t.Fatal(err)
		}
		want, wantMap := "min-min", mn
		if smx.Makespan() < smn.Makespan() {
			want, wantMap = "max-min", mx
		}
		if winner != want {
			t.Fatalf("trial %d: winner %q, want %q (min-min %g vs max-min %g)",
				trial, winner, want, smn.Makespan(), smx.Makespan())
		}
		if !mp.Equal(wantMap) {
			t.Fatalf("trial %d: MapSelectInto mapping disagrees with %s mapping", trial, want)
		}
		// Given the Min-Min mapping, the run maps Max-Min alone: the
		// policy sees one choice per task, and the result is the same.
		calls := tiebreak.Counting{Inner: tiebreak.First{}}
		known, kwinner, kties, err := (Duplex{}).MapSelectInto(in, &calls, &sc, mn.Assign, nil)
		if err != nil {
			t.Fatal(err)
		}
		if kwinner != want || kties != 0 || !known.Equal(wantMap) || calls.Invocations != int64(in.Tasks()) {
			t.Fatalf("trial %d: with a known Min-Min mapping: winner %q, %d ties, %d choices, equal mapping %v; want %q, 0, %d, true",
				trial, kwinner, kties, calls.Invocations, known.Equal(wantMap), want, in.Tasks())
		}
	}
}

// TestMinIndicesIntoMatchesMinIndices pins the scratch-buffer variant
// against the allocating one, including near-ties at the Epsilon boundary.
func TestMinIndicesIntoMatchesMinIndices(t *testing.T) {
	src := rng.New(4242)
	var buf []int
	for trial := 0; trial < 500; trial++ {
		vals := make([]float64, 1+src.Intn(9))
		for i := range vals {
			vals[i] = float64(1 + src.Intn(4))
			if src.Intn(3) == 0 {
				vals[i] += Epsilon / 2 // exercise the tolerance boundary
			}
		}
		buf = minIndicesInto(vals, buf)
		if want := minIndices(vals); !reflect.DeepEqual(append([]int(nil), buf...), want) {
			t.Fatalf("vals %v: minIndicesInto %v != minIndices %v", vals, buf, want)
		}
	}
	if minIndicesInto(nil, buf) != nil {
		t.Fatal("minIndicesInto(nil) != nil")
	}
}

// positiveFloat draws a positive float64 from every part of the range:
// subnormals, normals of any exponent, exact repeats and +Inf.
func positiveFloat(src *rng.Source, pool []float64) float64 {
	switch src.Intn(6) {
	case 0: // subnormal
		return math.Float64frombits(1 + src.Uint64()>>12)
	case 1:
		return math.Inf(1)
	case 2: // a repeat, so exact ties occur
		if len(pool) > 0 {
			return pool[src.Intn(len(pool))]
		}
	}
	for {
		// Any positive pattern but NaN: the sign bit clear, exponent and
		// mantissa drawn whole.
		if v := math.Float64frombits(src.Uint64() >> 1); !math.IsNaN(v) && v > 0 {
			return v
		}
	}
}

// TestCTBitsOrderAsValues is the bit-order precondition of ctBits: over
// positive floats, subnormals and +Inf included, the patterns order as the
// values do, so a min over ctBits (minBits, completionRowMin) is the float
// minimum and nearInto gathers the candidate set minIndices does. A -0,
// which a raw ready vector may hold, breaks it; that is why OLB's ready
// scan compares floats.
func TestCTBitsOrderAsValues(t *testing.T) {
	src := rng.New(4343)
	var buf []int
	for trial := 0; trial < 20000; trial++ {
		row := make([]float64, 1+src.Intn(17))
		bits := make([]uint64, len(row))
		for i := range row {
			row[i] = positiveFloat(src, row[:i])
			bits[i] = ctBits(row[i])
		}
		for _, a := range row {
			for _, b := range row {
				if (ctBits(a) < ctBits(b)) != (a < b) {
					t.Fatalf("ctBits(%g) < ctBits(%g) is %v, %g < %g is %v", a, b, ctBits(a) < ctBits(b), a, b, a < b)
				}
			}
		}
		mn := row[0]
		for _, v := range row[1:] {
			if v < mn {
				mn = v
			}
		}
		if got := math.Float64frombits(minBits(bits)); got != mn {
			t.Fatalf("row %v: minBits = %g, float min %g", row, got, mn)
		}
		buf = nearInto(row, mn, buf)
		if want := minIndices(row); !slices.Equal(buf, want) {
			t.Fatalf("row %v: nearInto %v != minIndices %v", row, buf, want)
		}
	}
	if negZero := math.Copysign(0, -1); ctBits(negZero) < ctBits(1) {
		t.Fatal("ctBits no longer orders -0 after 1; revisit OLB's float compares")
	}
}

// TestCompletionRowMinMatchesFloatMin holds the fused row build of MCT and
// SWA to completionRow and a float minimum, on ETC rows with subnormal and
// huge entries (whose sums with a ready time reach +Inf) and ready times of
// -0, +0 and subnormals.
func TestCompletionRowMinMatchesFloatMin(t *testing.T) {
	src := rng.New(4444)
	readies := append(edgeReady[:len(edgeReady):len(edgeReady)], math.MaxFloat64)
	for trial := 0; trial < 2000; trial++ {
		nM := 1 + src.Intn(17)
		etcRow, ready := make([]float64, nM), make([]float64, nM)
		for m := range etcRow {
			v := positiveFloat(src, etcRow[:m])
			for math.IsInf(v, 1) { // an ETC entry is finite
				v = positiveFloat(src, etcRow[:m])
			}
			etcRow[m], ready[m] = v, readies[src.Intn(len(readies))]
		}
		in := sched.MustInstance(etc.MustNew([][]float64{etcRow}), ready)
		ct := completionRow(in, 0, ready, make([]float64, nM))
		mn := ct[0]
		for _, v := range ct[1:] {
			if v < mn {
				mn = v
			}
		}
		dst := make([]float64, nM)
		if got := completionRowMin(in, 0, ready, dst); got != mn || !reflect.DeepEqual(dst, ct) {
			t.Fatalf("etc %v ready %v: completionRowMin = %g and row %v, want %g and %v", etcRow, ready, got, dst, mn, ct)
		}
	}
}

// allocInstance builds a deterministic mid-size workload for the allocation
// regression guards.
func allocInstance(t *testing.T, tasks, machines int) *sched.Instance {
	t.Helper()
	m, err := etc.GenerateRange(etc.RangeParams{
		Tasks: tasks, Machines: machines, TaskHet: 100, MachineHet: 10,
	}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	in, err := sched.NewInstance(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// allocShapes are the alloc guards' instances: a mid-size shape, and one of
// 65536 cells so the guards pin "independent of instance size" well above
// any small-instance threshold. The large shape's 12 runs keep -race builds
// (where sync.Pool drops a quarter of its Puts, and each refill costs ~9
// allocations) well under the bound.
var allocShapes = []struct{ tasks, machines, runs int }{{64, 8, 200}, {1024, 64, 12}}

// allocsPerRun is testing.AllocsPerRun (one warm-up call, then the mean
// mallocs per call over runs calls) without its GOMAXPROCS(1) pin: it
// measures with at least two Ps, so a mapping that fanned work out to
// goroutines would count the goroutines, closures and channels it spends.
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestSufferageAllocs is the scratch-reuse regression guard (pattern:
// TestNilObserverAddsNoAllocations in internal/core): with the pass state
// in a pooled Scratch, Sufferage.Map may allocate only the mapping,
// independent of instance size. The seed implementation allocated ~70 per
// Map on the 64×8 shape (and ~9.6k across one iterative-technique run).
func TestSufferageAllocs(t *testing.T) {
	for _, shape := range allocShapes {
		in := allocInstance(t, shape.tasks, shape.machines)
		allocs := allocsPerRun(shape.runs, func() {
			if _, err := (Sufferage{}).Map(in, tiebreak.First{}); err != nil {
				t.Fatal(err)
			}
		})
		// 1 steady-state allocation, Mapping.Assign, and the occasional
		// pool refill; allow headroom for GC clearing the pool.
		if allocs > 8 {
			t.Fatalf("Sufferage.Map on %dx%d allocates %v per run, want <= 8",
				shape.tasks, shape.machines, allocs)
		}
	}
}

// TestGreedyTwoPhaseAllocs guards the kernel's scratch reuse the same way.
func TestGreedyTwoPhaseAllocs(t *testing.T) {
	for _, shape := range allocShapes {
		in := allocInstance(t, shape.tasks, shape.machines)
		for _, h := range []Heuristic{MinMin{}, MaxMin{}} {
			allocs := allocsPerRun(shape.runs, func() {
				if _, err := h.Map(in, tiebreak.First{}); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 8 {
				t.Fatalf("%s.Map on %dx%d allocates %v per run, want <= 8",
					h.Name(), shape.tasks, shape.machines, allocs)
			}
		}
	}
}

// TestImmediateAllocs extends the guard to the list-order heuristics: each
// Map allocates its mapping and, when the pool was emptied, a Scratch,
// whatever the task count.
func TestImmediateAllocs(t *testing.T) {
	for _, shape := range allocShapes {
		in := allocInstance(t, shape.tasks, shape.machines)
		for _, h := range []Heuristic{OLB{}, MET{}, MCT{}, KPercentBest{Percent: 70}, SWA{Low: 0.33, High: 0.49}} {
			allocs := allocsPerRun(shape.runs, func() {
				if _, err := h.Map(in, tiebreak.First{}); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 8 {
				t.Fatalf("%s.Map on %dx%d allocates %v per run, want <= 8",
					h.Name(), shape.tasks, shape.machines, allocs)
			}
		}
	}
}

// TestMapIntoAllocatesNothing: on a warm Scratch and a dst that holds the
// mapping, every greedy heuristic's MapInto, and Seeded's MapSeededInto
// over it, allocates nothing, whatever the instance's size.
func TestMapIntoAllocatesNothing(t *testing.T) {
	for _, shape := range allocShapes {
		in := allocInstance(t, shape.tasks, shape.machines)
		seed := sched.NewMapping(shape.tasks)
		for i := range seed.Assign {
			seed.Assign[i] = i % shape.machines
		}
		var sc Scratch
		dst := make([]int, shape.tasks)
		for _, h := range greedyHeuristics {
			s := Seeded{Inner: h}
			for _, run := range []struct {
				name string
				f    func() error
			}{
				{h.Name(), func() error { _, err := h.MapInto(in, tiebreak.First{}, &sc, dst); return err }},
				{"seeded " + h.Name(), func() error { _, err := s.MapSeededInto(in, tiebreak.First{}, &sc, seed, dst); return err }},
			} {
				if allocs := testing.AllocsPerRun(shape.runs, func() {
					if err := run.f(); err != nil {
						t.Fatal(err)
					}
				}); allocs != 0 {
					t.Errorf("%s.MapInto on %dx%d allocates %v per run on a warm scratch, want 0",
						run.name, shape.tasks, shape.machines, allocs)
				}
			}
		}
	}
}

// TestSeededMapIntoOverSearchHeuristic: Seeded over a search heuristic
// meets the one MapInto contract too. Its result aliases dst and equals the
// search's own Map.
func TestSeededMapIntoOverSearchHeuristic(t *testing.T) {
	in := allocInstance(t, 12, 3)
	cfg := GenitorConfig{PopulationSize: 10, Steps: 20}
	want, err := NewGenitor(cfg, 4).Map(in, tiebreak.First{})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int, in.Tasks())
	got, err := Seeded{Inner: NewGenitor(cfg, 4)}.MapInto(in, tiebreak.First{}, new(Scratch), dst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Assign, want.Assign) {
		t.Fatalf("Seeded{Genitor}.MapInto = %v, Genitor.Map = %v", got.Assign, want.Assign)
	}
	if &got.Assign[0] != &dst[0] {
		t.Fatal("Seeded{Genitor}.MapInto's result does not alias dst")
	}
}

// TestKernelDegenerateShapes exercises the 1-task and 1-machine boundaries
// explicitly (sufferageValue's single-machine convention, row slicing).
func TestKernelDegenerateShapes(t *testing.T) {
	for _, shape := range []struct{ tasks, machines int }{{1, 1}, {1, 5}, {6, 1}} {
		vs := make([][]float64, shape.tasks)
		for i := range vs {
			vs[i] = make([]float64, shape.machines)
			for j := range vs[i] {
				vs[i][j] = float64(1 + (i+j)%3)
			}
		}
		in, err := sched.NewInstance(etc.MustNew(vs), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []Heuristic{MinMin{}, MaxMin{}, Duplex{}, Sufferage{}} {
			mp, err := h.Map(in, tiebreak.First{})
			if err != nil {
				t.Fatalf("%s on %dx%d: %v", h.Name(), shape.tasks, shape.machines, err)
			}
			if err := mp.Validate(in); err != nil {
				t.Fatalf("%s on %dx%d: %v", h.Name(), shape.tasks, shape.machines, err)
			}
		}
	}
}

// TestKernelColumnRefreshExactness documents the ulp trap the kernel must
// avoid: refreshing a cached completion time by adding the committed task's
// ETC to the *cached sum* can differ from the reference's recomputed
// etc+ready in the last bit. The kernel recomputes; this test demonstrates
// the trap is real for our float workloads, so the discipline is guarded
// against regression by the differential suite above.
func TestKernelColumnRefreshExactness(t *testing.T) {
	src := rng.New(99)
	found := false
	for trial := 0; trial < 20000 && !found; trial++ {
		etcv := 1 + 99*src.Float64()
		r0 := 10 * src.Float64()
		delta := 1 + 9*src.Float64()
		incremental := (etcv + r0) + delta
		recomputed := etcv + (r0 + delta)
		if incremental != recomputed {
			found = true
		}
	}
	if !found {
		t.Skip("no ulp divergence found in 20k draws (platform rounding?)")
	}
}
