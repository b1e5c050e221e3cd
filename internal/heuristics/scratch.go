package heuristics

import (
	"sync"
	"unsafe"

	"repro/internal/sched"
	"repro/internal/tiebreak"
)

// word is the size of an int, the element of every int buffer.
const word = int(unsafe.Sizeof(0))

// Scratch is the working storage of the heuristics' runs: the two-phase
// kernels, the Sufferage, KPB and SWA buffers, the ready vector and the
// completion buffer. The search heuristics use it for their greedy
// starting mappings; their populations and walks are their own. A caller
// that maps many instances in turn (the iterative engine's Workspace, a
// service worker) keeps one Scratch and hands it to every run; once it has
// grown to the largest shape, a greedy run allocates nothing. Every run
// overwrites what it reads, so nothing from one run, finished or
// abandoned, reaches the next. A Scratch is not safe for concurrent use.
// The zero value is ready.
type Scratch struct {
	kMin, kMax twoPhaseKernel // Min-Min / Max-Min; Duplex runs both
	ready      []float64      // the ready vector a run advances
	completion []float64      // makespan comparisons (Duplex, Seeded)
	alt        []int          // Duplex's Max-Min mapping
	row        []float64      // one task's completion times (MCT, SWA, KPB)
	cands      []int          // one choice's candidate machines
	// Sufferage's pass state.
	inList      []bool
	holder      []int
	sufferageOf []float64
	// KPB's machine ranking, and its subset and tied positions.
	ranked []kpbCand
	subset []int
	pos    []int
}

// Footprint returns the bytes sc and its buffers hold, so an owner that
// keeps a Scratch between runs can bound what it retains. A nil Scratch
// holds nothing.
func (sc *Scratch) Footprint() int {
	if sc == nil {
		return 0
	}
	n := int(unsafe.Sizeof(*sc)) + sc.kMin.footprint() + sc.kMax.footprint()
	n += 8 * (cap(sc.ready) + cap(sc.completion) + cap(sc.row) + cap(sc.sufferageOf))
	n += word * (cap(sc.alt) + cap(sc.cands) + cap(sc.holder) + cap(sc.subset) + cap(sc.pos))
	n += cap(sc.inList) + int(unsafe.Sizeof(kpbCand{}))*cap(sc.ranked)
	return n
}

// scratchPool backs Map, and the one-shot runs of callers that keep no
// Scratch of their own (GetScratch).
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a Scratch from the package's pool, for a caller that
// runs once and keeps no Scratch; PutScratch returns it. Nothing the caller
// keeps may alias it after the Put.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns sc, from GetScratch, to the pool.
func PutScratch(sc *Scratch) { scratchPool.Put(sc) }

// mapPooled is Map for every heuristic: mapInto on a pooled Scratch into a
// fresh mapping, which the caller then owns outright.
func mapPooled(in *sched.Instance, tb tiebreak.Policy,
	mapInto func(*sched.Instance, tiebreak.Policy, *Scratch, []int) (sched.Mapping, error)) (sched.Mapping, error) {
	sc := GetScratch()
	defer PutScratch(sc)
	return mapInto(in, tb, sc, nil)
}

// candidates returns the scratch's candidate buffer, empty, with room for n
// candidates, so that a run that never offers more appends into it without
// reallocating; the run keeps it in a local for its hot loop.
func (sc *Scratch) candidates(n int) []int {
	sc.cands = grow(sc.cands, n)[:0]
	return sc.cands
}

// listBuffers readies a list-order run's buffers over in (OLB, MET, MCT,
// SWA): the ready vector, one completion-time row and the candidates. It
// stays out of line: inlined, its growth paths made the compiler spill the
// run's loop state on every task (MCT's 512×16 Map ran 35% slower than
// with buffers it allocated itself).
//
//go:noinline
func (sc *Scratch) listBuffers(in *sched.Instance) (ready, row []float64, cands []int) {
	sc.ready = in.ReadyTimesInto(sc.ready)
	sc.row = grow(sc.row, in.Machines())
	return sc.ready, sc.row, sc.candidates(in.Machines())
}

// assignInto returns a mapping of n tasks, every one unassigned, over dst's
// storage when it holds n.
func assignInto(dst []int, n int) sched.Mapping {
	a := grow(dst, n)
	for i := range a {
		a[i] = -1
	}
	return sched.Mapping{Assign: a}
}
