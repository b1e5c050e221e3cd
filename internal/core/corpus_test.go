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

// renderCorpus runs every corpus case and returns the golden text.
func renderCorpus(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	for ci, c := range corpusCases(t) {
		for _, name := range corpusHeuristics {
			base, err := heuristics.ByName(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range []heuristics.Heuristic{base, heuristics.Seeded{Inner: base}} {
				for _, ties := range []string{"det", "random"} {
					for _, o := range corpusOptions {
						if !c.allOpts && o.label != "all" {
							continue
						}
						var inner tiebreak.Policy = tiebreak.First{}
						if ties == "random" {
							inner = tiebreak.NewRandom(rng.New(uint64(8800 + ci)))
						}
						rec := tiebreak.NewRecorder(inner)
						tr, err := IterateOpts(c.in, h, FixedPolicy(rec), o.opts)
						if err != nil {
							t.Fatalf("%s %s %s %s: %v", c.name, h.Name(), ties, o.label, err)
						}
						sum := sha256.New()
						renderTrace(sum, tr, rec)
						fmt.Fprintf(&out, "%s %s %s %s iters=%d %x\n",
							c.name, h.Name(), ties, o.label, len(tr.Iterations), sum.Sum(nil)[:8])
					}
				}
			}
		}
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
