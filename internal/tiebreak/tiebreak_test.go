package tiebreak

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

func TestFirst(t *testing.T) {
	if got := (First{}).Choose([]int{3, 5, 9}); got != 3 {
		t.Fatalf("First.Choose = %d, want 3", got)
	}
	if (First{}).Name() == "" {
		t.Fatal("empty name")
	}
}

func TestLast(t *testing.T) {
	if got := (Last{}).Choose([]int{3, 5, 9}); got != 9 {
		t.Fatalf("Last.Choose = %d, want 9", got)
	}
}

func TestChoosePanicsOnEmpty(t *testing.T) {
	for _, p := range []Policy{First{}, Last{}, NewRandom(rng.New(1)), &Scripted{}, NewRecorder(First{})} {
		p := p
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Choose(nil) did not panic", p.Name())
				}
			}()
			p.Choose(nil)
		}()
	}
}

func TestRandomUniform(t *testing.T) {
	p := NewRandom(rng.New(42))
	cands := []int{10, 20, 30}
	counts := map[int]int{}
	const trials = 30000
	for i := 0; i < trials; i++ {
		counts[p.Choose(cands)]++
	}
	for _, c := range cands {
		frac := float64(counts[c]) / trials
		if math.Abs(frac-1.0/3) > 0.02 {
			t.Fatalf("candidate %d chosen with frequency %g, want about 1/3", c, frac)
		}
	}
}

func TestRandomSingletonConsumesNoRandomness(t *testing.T) {
	src := rng.New(7)
	p := NewRandom(src)
	before := rng.New(7).Uint64()
	if got := p.Choose([]int{42}); got != 42 {
		t.Fatalf("singleton choose = %d", got)
	}
	// The stream must be untouched: next draw equals the first draw of a
	// fresh identically seeded source.
	if src.Uint64() != before {
		t.Fatal("singleton tie consumed randomness; scripts would desynchronise")
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a := NewRandom(rng.New(5))
	b := NewRandom(rng.New(5))
	cands := []int{1, 2, 3, 4}
	for i := 0; i < 100; i++ {
		if a.Choose(cands) != b.Choose(cands) {
			t.Fatal("Random policy not reproducible for a fixed seed")
		}
	}
}

func TestScriptedReplaysAndFallsBack(t *testing.T) {
	s := &Scripted{Script: []int{1, 0, 2}}
	cands := []int{10, 20, 30}
	if got := s.Choose(cands); got != 20 {
		t.Fatalf("step 0 = %d, want 20", got)
	}
	if got := s.Choose(cands); got != 10 {
		t.Fatalf("step 1 = %d, want 10", got)
	}
	if got := s.Choose(cands); got != 30 {
		t.Fatalf("step 2 = %d, want 30", got)
	}
	// Script exhausted: falls back to First.
	if got := s.Choose(cands); got != 10 {
		t.Fatalf("exhausted step = %d, want 10", got)
	}
}

func TestScriptedSingletonDoesNotAdvance(t *testing.T) {
	s := &Scripted{Script: []int{1}}
	if got := s.Choose([]int{7}); got != 7 {
		t.Fatalf("singleton = %d", got)
	}
	// The scripted step must still be pending.
	if got := s.Choose([]int{10, 20}); got != 20 {
		t.Fatalf("after singleton, scripted pick = %d, want 20", got)
	}
}

func TestScriptedModulo(t *testing.T) {
	s := &Scripted{Script: []int{5}}
	if got := s.Choose([]int{10, 20}); got != 20 {
		t.Fatalf("modulo pick = %d, want 20 (5 mod 2 = 1)", got)
	}
}

func TestScriptedReset(t *testing.T) {
	s := &Scripted{Script: []int{1}}
	_ = s.Choose([]int{1, 2})
	s.Reset()
	if got := s.Choose([]int{10, 20}); got != 20 {
		t.Fatalf("after Reset, pick = %d, want 20", got)
	}
}

func TestRecorderRecordsOnlyGenuineTies(t *testing.T) {
	r := NewRecorder(First{})
	_ = r.Choose([]int{5})
	if r.TieCount() != 0 {
		t.Fatal("singleton recorded as tie")
	}
	_ = r.Choose([]int{3, 8})
	if r.TieCount() != 1 {
		t.Fatalf("TieCount = %d, want 1", r.TieCount())
	}
	if len(r.Ties[0]) != 2 || r.Ties[0][0] != 3 || r.Ties[0][1] != 8 {
		t.Fatalf("recorded tie = %v", r.Ties[0])
	}
	if r.Picks[0] != 3 {
		t.Fatalf("recorded pick = %d, want 3", r.Picks[0])
	}
}

func TestRecorderCopiesCandidates(t *testing.T) {
	r := NewRecorder(First{})
	cands := []int{1, 2}
	_ = r.Choose(cands)
	cands[0] = 99
	if r.Ties[0][0] != 1 {
		t.Fatal("Recorder aliased the candidates slice")
	}
}

func TestRecorderDelegates(t *testing.T) {
	r := NewRecorder(Last{})
	if got := r.Choose([]int{1, 2, 3}); got != 3 {
		t.Fatalf("Recorder did not delegate: got %d", got)
	}
}

func TestPolicyNames(t *testing.T) {
	cases := []struct {
		p    Policy
		want string
	}{
		{First{}, "deterministic-first"},
		{Last{}, "deterministic-last"},
		{NewRandom(rng.New(1)), "random"},
		{&Scripted{Script: []int{1, 0}}, "scripted[1 0]"},
		{NewRecorder(First{}), "recorded(deterministic-first)"},
	}
	for _, tc := range cases {
		if got := tc.p.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

func TestCountingCountsAndDelegates(t *testing.T) {
	c := &Counting{Inner: Last{}}
	if got := c.Choose([]int{4}); got != 4 {
		t.Fatalf("singleton choice = %d, want 4", got)
	}
	if got := c.Choose([]int{1, 5, 9}); got != 9 {
		t.Fatalf("Counting did not delegate: got %d", got)
	}
	if got := c.Choose([]int{2, 7}); got != 7 {
		t.Fatalf("Counting did not delegate: got %d", got)
	}
	if c.Invocations != 3 || c.Ties != 2 || c.Candidates != 6 {
		t.Fatalf("counts = %d/%d/%d, want 3/2/6", c.Invocations, c.Ties, c.Candidates)
	}
	if got := c.Name(); got != "deterministic-last" {
		t.Fatalf("Name() = %q, want the inner policy's name", got)
	}
}

// TestSingleCandidateLeavesStateUnchanged pins the Policy contract: a
// single-candidate Choose returns its candidate and changes nothing, so
// interleaving such calls alters no later pick and no Recorder log.
func TestSingleCandidateLeavesStateUnchanged(t *testing.T) {
	ties := [][]int{{0, 1}, {2, 3, 4}, {1, 5}, {0, 3, 6, 9}, {7, 8}, {1, 2, 3}, {4, 6}, {0, 9}}
	policies := map[string]func() Policy{
		"first":    func() Policy { return First{} },
		"last":     func() Policy { return Last{} },
		"random":   func() Policy { return NewRandom(rng.New(11)) },
		"scripted": func() Policy { return &Scripted{Script: []int{1, 0, 2, 3, 1}} },
		"recorder": func() Policy { return NewRecorder(NewRandom(rng.New(11))) },
	}
	for name, mk := range policies {
		plain, mixed := mk(), mk()
		var want, got []int
		for i, c := range ties {
			want = append(want, plain.Choose(c))
			for j := 0; j <= i%3; j++ {
				single := []int{10*i + j}
				if pick := mixed.Choose(single); pick != single[0] {
					t.Fatalf("%s: Choose(%v) = %d", name, single, pick)
				}
			}
			got = append(got, mixed.Choose(c))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: picks with single-candidate calls interleaved = %v, want %v", name, got, want)
		}
		if r, ok := plain.(*Recorder); ok {
			m := mixed.(*Recorder)
			if !reflect.DeepEqual(m.Ties, r.Ties) || !reflect.DeepEqual(m.Picks, r.Picks) {
				t.Errorf("recorder log with single-candidate calls = %v/%v, want %v/%v", m.Ties, m.Picks, r.Ties, r.Picks)
			}
		}
	}
}
