package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/etc"
	"repro/internal/heuristics"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tiebreak"
)

// The iterate corpus pins the engine bit for bit: every greedy heuristic,
// plain and Seeded, under deterministic and seeded-random ties, on
// tie-dense integer matrices (degenerate shapes through 128×16) and on all
// twelve ETC classes, with the MaxIterations caps 0/1/2 and both freeze
// rules on the integer shapes. Each case renders every Iteration field
// (floats as Float64bits), FinalAssign, FinalCompletion and every tie
// candidate list and pick a tiebreak.Recorder saw; the golden line holds
// the iteration count and a SHA-256 prefix of that rendering.
//
// reference.go specifies only the two-phase kernel and Sufferage, so this
// file is the one bit-for-bit oracle for MET/MCT/OLB/KPB/SWA and for the
// engine loop itself. To regenerate after a deliberate behavior change,
// delete testdata/iterate_corpus.golden and run the test twice.
const corpusGolden = "testdata/iterate_corpus.golden"

// corpusHeuristics are the greedy heuristics under the corpus.
var corpusHeuristics = []string{"olb", "met", "mct", "min-min", "max-min", "duplex", "sufferage", "kpb", "swa"}

type corpusCase struct {
	name string
	in   *sched.Instance
	// allOpts runs the MaxIterations 1/2 and FreezeMinCompletion variants
	// too, not only the paper's technique.
	allOpts bool
}

// tieDense is a tasks×machines matrix with entries in 1..5 (exact
// completion-time ties everywhere) and, when withReady, ready times in 0..3.
func tieDense(t *testing.T, tasks, machines int, withReady bool, seed uint64) *sched.Instance {
	t.Helper()
	src := rng.New(seed)
	vs := make([][]float64, tasks)
	for i := range vs {
		vs[i] = make([]float64, machines)
		for j := range vs[i] {
			vs[i][j] = float64(1 + src.Intn(5))
		}
	}
	var ready []float64
	if withReady {
		ready = make([]float64, machines)
		for j := range ready {
			ready[j] = float64(src.Intn(4))
		}
	}
	in, err := sched.NewInstance(etc.MustNew(vs), ready)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func corpusCases(t *testing.T) []corpusCase {
	t.Helper()
	var cs []corpusCase
	for i, sh := range []struct {
		tasks, machines int
		ready           bool
	}{{1, 1, false}, {1, 6, true}, {9, 1, true}, {12, 4, false}, {12, 4, true}, {40, 6, true}, {128, 16, false}, {128, 16, true}} {
		name := fmt.Sprintf("int-%dx%d", sh.tasks, sh.machines)
		if sh.ready {
			name += "-ready"
		}
		cs = append(cs, corpusCase{name, tieDense(t, sh.tasks, sh.machines, sh.ready, uint64(4100+i)), true})
	}
	for i, c := range etc.AllClasses() {
		m, err := etc.GenerateClass(c, 24, 5, rng.New(uint64(4200+i)))
		if err != nil {
			t.Fatal(err)
		}
		in, err := sched.NewInstance(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, corpusCase{"class-" + c.Label(), in, false})
	}
	return cs
}

type corpusOpts struct {
	label string
	opts  Options
}

var corpusOptions = []corpusOpts{
	{"all", Options{}},
	{"max1", Options{MaxIterations: 1}},
	{"max2", Options{MaxIterations: 2}},
	{"minfreeze", Options{FreezeRule: FreezeMinCompletion}},
}

// renderTrace writes every recorded field of tr and rec to w.
func renderTrace(w io.Writer, tr *Trace, rec *tiebreak.Recorder) {
	for _, it := range tr.Iterations {
		fmt.Fprintf(w, "it %d tasks %v machines %v assign %v completion", it.Index, it.Tasks, it.Machines, it.Assign)
		for _, c := range it.Completion {
			fmt.Fprintf(w, " %x", math.Float64bits(c))
		}
		fmt.Fprintf(w, " makespan %x on %d frozen %d\n", math.Float64bits(it.Makespan), it.MakespanMachine, it.Frozen)
	}
	fmt.Fprintf(w, "final assign %v completion", tr.FinalAssign)
	for _, c := range tr.FinalCompletion {
		fmt.Fprintf(w, " %x", math.Float64bits(c))
	}
	fmt.Fprintf(w, "\nties %v picks %v\n", rec.Ties, rec.Picks)
}

// corpusRun is one line of the corpus: a case, a heuristic, a tie policy
// and an option set.
type corpusRun struct {
	ci   int // the case's index, which seeds its random ties
	c    corpusCase
	h    heuristics.Heuristic
	ties string
	o    corpusOpts
}

// corpusRuns lists every corpus run in golden-file order.
func corpusRuns(t *testing.T) []corpusRun {
	t.Helper()
	var runs []corpusRun
	for ci, c := range corpusCases(t) {
		for _, name := range corpusHeuristics {
			base, err := heuristics.ByName(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range []heuristics.Heuristic{base, heuristics.Seeded{Inner: base}} {
				for _, ties := range []string{"det", "random"} {
					for _, o := range corpusOptions {
						if c.allOpts || o.label == "all" {
							runs = append(runs, corpusRun{ci, c, h, ties, o})
						}
					}
				}
			}
		}
	}
	return runs
}

// iterateFunc is IterateOpts or a Workspace's Iterate.
type iterateFunc func(*sched.Instance, heuristics.Heuristic, PolicyFunc, Options) (*Trace, error)

// line runs r through iterate and returns its golden line.
func (r corpusRun) line(t *testing.T, iterate iterateFunc) string {
	t.Helper()
	var inner tiebreak.Policy = tiebreak.First{}
	if r.ties == "random" {
		inner = tiebreak.NewRandom(rng.New(uint64(8800 + r.ci)))
	}
	rec := tiebreak.NewRecorder(inner)
	tr, err := iterate(r.c.in, r.h, FixedPolicy(rec), r.o.opts)
	if err != nil {
		t.Fatalf("%s %s %s %s: %v", r.c.name, r.h.Name(), r.ties, r.o.label, err)
	}
	sum := sha256.New()
	renderTrace(sum, tr, rec)
	return fmt.Sprintf("%s %s %s %s iters=%d %x\n",
		r.c.name, r.h.Name(), r.ties, r.o.label, len(tr.Iterations), sum.Sum(nil)[:8])
}

// renderCorpus runs every corpus case and returns the golden text.
func renderCorpus(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, r := range corpusRuns(t) {
		out.WriteString(r.line(t, IterateOpts))
	}
	return out.Bytes()
}

func TestIterateCorpusGolden(t *testing.T) {
	got := renderCorpus(t)
	want, err := os.ReadFile(corpusGolden)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(corpusGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(corpusGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s (%d lines); rerun to compare", corpusGolden, bytes.Count(got, []byte("\n")))
	}
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := strings.Split(string(got), "\n")
	var diffs []string
	sc := bufio.NewScanner(bytes.NewReader(want))
	for i := 0; sc.Scan(); i++ {
		if i >= len(gotLines) || gotLines[i] != sc.Text() {
			g := "<missing>"
			if i < len(gotLines) {
				g = gotLines[i]
			}
			diffs = append(diffs, fmt.Sprintf("  want %s\n  got  %s", sc.Text(), g))
			if len(diffs) == 5 {
				break
			}
		}
	}
	t.Fatalf("iterate corpus drifted from %s (%d vs %d bytes); first differences:\n%s",
		corpusGolden, len(got), len(want), strings.Join(diffs, "\n"))
}

// failAt wraps a heuristic so that its nth run panics or returns an
// invalid mapping, abandoning a trace partway with the workspace dirty.
type failAt struct {
	heuristics.Heuristic
	n, calls int
	panics   bool
}

func (f *failAt) MapInto(in *sched.Instance, tb tiebreak.Policy, sc *heuristics.Scratch, dst []int) (sched.Mapping, error) {
	f.calls++
	if f.calls < f.n {
		return f.Heuristic.MapInto(in, tb, sc, dst)
	}
	if f.panics {
		panic("failAt: deliberate panic")
	}
	return sched.Mapping{Assign: []int{-1}}, nil
}

// TestIterateCorpusSharedWorkspace is the workspace reuse differential:
// every corpus run goes through one shared Workspace, in a seeded shuffle
// that alternates large and small shapes and mixes heuristics, tie
// policies, option sets and Seeded, and every line must equal the golden.
// Every few runs a trace is abandoned partway — by a panic or by an invalid
// mapping — on the same workspace. A trace that read anything a previous
// one left behind would change its digest.
func TestIterateCorpusSharedWorkspace(t *testing.T) {
	want, err := os.ReadFile(corpusGolden)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(want), "\n")
	runs := corpusRuns(t)
	if len(lines)-1 != len(runs) {
		t.Fatalf("%s has %d lines for %d corpus runs", corpusGolden, len(lines)-1, len(runs))
	}
	src := rng.New(4321)
	var large, small []int
	for i, r := range runs {
		if r.c.in.Tasks()*r.c.in.Machines() >= 240 {
			large = append(large, i)
		} else {
			small = append(small, i)
		}
	}
	src.Shuffle(len(large), func(i, j int) { large[i], large[j] = large[j], large[i] })
	src.Shuffle(len(small), func(i, j int) { small[i], small[j] = small[j], small[i] })
	var order []int
	for len(large) > 0 || len(small) > 0 {
		if len(large) > 0 {
			order, large = append(order, large[0]), large[1:]
		}
		if len(small) > 0 {
			order, small = append(order, small[0]), small[1:]
		}
	}

	var ws Workspace
	abandoned := 0
	for step, i := range order {
		r := runs[i]
		if step%7 == 5 && abandon(t, &ws, r, step%2 == 0) {
			abandoned++
		}
		if got := r.line(t, ws.Iterate); got != lines[i] {
			t.Fatalf("step %d on a shared workspace:\n got %s want %s", step, got, lines[i])
		}
	}
	if abandoned < 20 {
		t.Fatalf("only %d traces abandoned", abandoned)
	}
}

// abandon starts r's trace on ws with a heuristic that fails at its third
// run (mid-trace), by a panic or by an invalid mapping, and reports whether
// the trace failed; a trace that ends within two runs does not.
func abandon(t *testing.T, ws *Workspace, r corpusRun, panics bool) (failed bool) {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			failed = true
		}
	}()
	h := &failAt{Heuristic: r.h, n: 3, panics: panics}
	_, err := ws.Iterate(r.c.in, h, Deterministic(), Options{})
	return err != nil
}
