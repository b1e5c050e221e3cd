package core

import (
	"reflect"
	"testing"

	"repro/internal/etc"
	"repro/internal/heuristics"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tiebreak"
)

// hidden and hiddenSeedable embed a heuristic's interface and so promote
// Name, Map, MapInto and (for Seedable) MapSeededInto, but not the
// restricting marker: the engine computes every iteration of a hidden
// heuristic. hiddenDuplex promotes Duplex's MapSelectInto too, so its
// events still name the winning side, but it is no heuristics.Duplex, so
// the engine runs both halves every time. These slow paths are the oracle
// for derived iterations.
type hidden struct{ heuristics.Heuristic }

type hiddenSeedable struct{ heuristics.Seedable }

type hiddenDuplex struct{ selectingHeuristic }

type selectingHeuristic interface {
	heuristics.Heuristic
	selector
}

func hide(h heuristics.Heuristic) heuristics.Heuristic {
	if d, ok := h.(heuristics.Duplex); ok {
		return hiddenDuplex{d}
	}
	if s, ok := h.(heuristics.Seedable); ok {
		return hiddenSeedable{s}
	}
	return hidden{h}
}

// restrictingHeuristics are the heuristics the engine derives iterations
// for, each plain and Seeded.
func restrictingHeuristics() []heuristics.Heuristic {
	var hs []heuristics.Heuristic
	for _, h := range []heuristics.Heuristic{heuristics.MinMin{}, heuristics.MCT{}, heuristics.MET{}, heuristics.OLB{}} {
		hs = append(hs, h, heuristics.Seeded{Inner: h})
	}
	return hs
}

// derivedOracle runs IterateOpts on in with h and with hide(h), each with
// and without an observer, and fails unless the four traces are DeepEqual
// and the two event streams equal but for their wall-clock fields. policy
// builds a fresh policy stream per run.
func derivedOracle(t *testing.T, in *sched.Instance, h heuristics.Heuristic, policy func() PolicyFunc, opts Options) {
	t.Helper()
	if heuristics.Restricts(hide(h)) {
		t.Fatalf("hide(%s) still carries the restricting marker", h.Name())
	}
	var fastEvents, slowEvents obs.Collector
	var traces [4]*Trace
	for i, run := range []struct {
		h heuristics.Heuristic
		o obs.Observer
	}{{h, nil}, {hide(h), nil}, {h, &fastEvents}, {hide(h), &slowEvents}} {
		o := opts
		if run.o != nil {
			o.Observer = run.o
		}
		tr, err := IterateOpts(in, run.h, policy(), o)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = tr
	}
	for i, name := range []string{"marker hidden", "with observer", "marker hidden, with observer"} {
		if !reflect.DeepEqual(traces[0], traces[i+1]) {
			t.Fatalf("%s: trace differs from %s:\n got %+v\nwant %+v", h.Name(), name, traces[0], traces[i+1])
		}
	}
	if got, want := timeless(&fastEvents), timeless(&slowEvents); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: event stream differs from the marker-hidden one:\n got %+v\nwant %+v", h.Name(), got, want)
	}
}

// tiePolicy returns the policy stream mode picks: deterministic first,
// deterministic last or seeded random.
func tiePolicy(mode int, seed uint64) func() PolicyFunc {
	return func() PolicyFunc {
		switch mode % 3 {
		case 1:
			return FixedPolicy(tiebreak.Last{})
		case 2:
			return FixedPolicy(tiebreak.NewRandom(rng.New(seed)))
		}
		return Deterministic()
	}
}

// timeless is the observer event stream with the wall-clock fields zeroed.
func timeless(c *obs.Collector) []obs.Event {
	var out []obs.Event
	for _, e := range c.Events() {
		switch ev := e.(type) {
		case obs.HeuristicDone:
			ev.ElapsedNS = 0
			e = ev
		case obs.TraceDone:
			ev.ElapsedNS = 0
			e = ev
		}
		out = append(out, e)
	}
	return out
}

// fuzzInstance is tieDense when intValues, else its float twin: entries in
// [1, 5) and, when withReady, ready times in [0, 3), where exact ties are
// measure-zero.
func fuzzInstance(t *testing.T, seed uint64, tasks, machines int, intValues, withReady bool) *sched.Instance {
	t.Helper()
	if intValues {
		return tieDense(t, tasks, machines, withReady, seed)
	}
	src := rng.New(seed)
	vs := make([][]float64, tasks)
	for i := range vs {
		vs[i] = make([]float64, machines)
		for j := range vs[i] {
			vs[i][j] = 1 + 4*src.Float64()
		}
	}
	var ready []float64
	if withReady {
		ready = make([]float64, machines)
		for j := range ready {
			ready[j] = 3 * src.Float64()
		}
	}
	in, err := sched.NewInstance(etc.MustNew(vs), ready)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// FuzzIterateDerived holds the derived iterations to the slow path. Each
// input picks a small float or tie-dense integer matrix, with or without
// ready times, a restricting heuristic (plain or Seeded), deterministic or
// seeded-random ties, a freeze rule and a MaxIterations cap of 0, 1 or 2.
// The engine's trace must equal the trace of the same call with the
// restricting marker hidden, and so must both event streams but for their
// wall-clock fields. Every input then holds Duplex's derived Min-Min half,
// and Seeded{Duplex}, to the same oracle, under the input's ties and under
// last ties.
func FuzzIterateDerived(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(4), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(40), uint8(6), uint8(3), uint8(0x0d))
	f.Add(uint64(3), uint8(9), uint8(5), uint8(1), uint8(0x2e))
	f.Add(uint64(4), uint8(20), uint8(8), uint8(2), uint8(0x59))
	f.Add(uint64(5), uint8(24), uint8(6), uint8(0x0b), uint8(0x08))
	f.Add(uint64(6), uint8(30), uint8(5), uint8(0x0e), uint8(0x41))
	f.Add(uint64(7), uint8(16), uint8(7), uint8(0x0d), uint8(0x09))
	f.Add(uint64(9), uint8(15), uint8(6), uint8(0x42), uint8(0x9a))
	hs := restrictingHeuristics()
	duplexes := []heuristics.Heuristic{heuristics.Duplex{}, heuristics.Seeded{Inner: heuristics.Duplex{}}}
	f.Fuzz(func(t *testing.T, seed uint64, tasks, machines, shape, mode uint8) {
		in := fuzzInstance(t, seed, 1+int(tasks)%48, 1+int(machines)%8, shape&1 != 0, shape&2 != 0)
		h := hs[int(mode)%len(hs)]
		ties := 0
		if mode&0x08 != 0 {
			ties = 2
		}
		opts := Options{MaxIterations: int(mode>>4) % 3}
		if mode&0x40 != 0 {
			opts.FreezeRule = FreezeMinCompletion
		}
		derivedOracle(t, in, h, tiePolicy(ties, seed), opts)
		for _, d := range duplexes {
			derivedOracle(t, in, d, tiePolicy(ties, seed), opts)
			derivedOracle(t, in, d, tiePolicy(1, seed), opts)
		}
	})
}

// TestDuplexDerivesItsMinMinHalf checks that the derivation runs: on a
// float instance where Min-Min wins tie-free, the policy sees only Max-Min's
// choices after the original mapping, while the hidden run's policy sees
// both halves' choices in every iteration.
func TestDuplexDerivesItsMinMinHalf(t *testing.T) {
	derivedRuns := 0
	for seed := uint64(1); seed <= 20; seed++ {
		in := fuzzInstance(t, seed, 64, 8, false, true)
		var counts [2]tiebreak.Counting
		var traces [2]*Trace
		for i, h := range []heuristics.Heuristic{heuristics.Duplex{}, hide(heuristics.Duplex{})} {
			counts[i].Inner = tiebreak.First{}
			tr, err := Iterate(in, h, FixedPolicy(&counts[i]))
			if err != nil {
				t.Fatal(err)
			}
			traces[i] = tr
		}
		if !reflect.DeepEqual(traces[0], traces[1]) {
			t.Fatalf("seed %d: derived trace differs from the computed one", seed)
		}
		// The hidden run chooses twice per task in every iteration.
		var want int64
		for _, it := range traces[1].Iterations {
			want += 2 * int64(len(it.Tasks))
		}
		if counts[1].Invocations != want {
			t.Fatalf("seed %d: hidden run chose %d times, want %d", seed, counts[1].Invocations, want)
		}
		if counts[0].Invocations < want {
			derivedRuns++
		}
	}
	if derivedRuns == 0 {
		t.Fatal("no Duplex trace derived a Min-Min half")
	}
}

// TestDerivedIterationsSkipTheHeuristic checks that a tie-free run asks the
// policy function only for the original mapping, while the marker-hidden
// run asks it for every iteration and produces the same trace.
func TestDerivedIterationsSkipTheHeuristic(t *testing.T) {
	in := fuzzInstance(t, 5, 64, 8, false, true)
	for _, h := range restrictingHeuristics() {
		var calls [2]int
		var traces [2]*Trace
		for i, hh := range []heuristics.Heuristic{h, hide(h)} {
			tr, err := Iterate(in, hh, func(int) tiebreak.Policy {
				calls[i]++
				return tiebreak.First{}
			})
			if err != nil {
				t.Fatal(err)
			}
			traces[i] = tr
		}
		if n := len(traces[0].Iterations); n != 8 {
			t.Fatalf("%s: %d iterations, want 8", h.Name(), n)
		}
		if calls[0] != 1 || calls[1] != 8 {
			t.Errorf("%s: policy asked %d times (hidden: %d), want 1 (8)", h.Name(), calls[0], calls[1])
		}
		if !reflect.DeepEqual(traces[0], traces[1]) {
			t.Errorf("%s: derived trace differs from the computed one", h.Name())
		}
	}
}

// TestNonRestrictingHeuristicsComputeEveryIteration pins the closed set:
// no heuristic outside Min-Min, MCT, MET and OLB (and Seeded over them)
// carries the marker.
func TestNonRestrictingHeuristicsComputeEveryIteration(t *testing.T) {
	want := map[string]bool{"min-min": true, "mct": true, "met": true, "olb": true}
	for _, name := range heuristics.Names() {
		h, err := heuristics.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := heuristics.Restricts(h); got != want[name] {
			t.Errorf("Restricts(%s) = %v, want %v", name, got, want[name])
		}
		if got := heuristics.Restricts(heuristics.Seeded{Inner: h}); got != want[name] {
			t.Errorf("Restricts(seeded(%s)) = %v, want %v", name, got, want[name])
		}
	}
}
