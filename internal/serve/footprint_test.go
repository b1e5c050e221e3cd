package serve

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/heuristics"
)

// TestFootprintCoversLiveBytes holds a worker's compute scratch to its
// reported footprint: after a request, and after a 2×2 request that follows
// it on the same scratch, the bytes that stay live after a GC are at most
// footprint(), the number MaxPooledScratch and estimateBytes are checked
// against. It runs on the ready-time shapes of estimateShapes, whose
// traces outgrow the first carve array, so the arrays an earlier iteration
// still references must be counted, and must be let go by the next trace.
//
// footprint() counts the scratch's two structs and what their buffers
// hold, by capacity, and every buffer it counts (the workspace's, the
// heuristics' scratch's, the response's, the decoded and restricted
// instances' ready times, row headers and cells) takes the allocator's
// whole size class as capacity. Beyond footprint() the bound allows
// 512 B: the size-class rounding of the two structs (80 B) and what the
// runtime itself keeps live between the measurements. The largest excess
// over this grid is 392 B, against carve arrays of hundreds of KiB to MiB.
func TestFootprintCoversLiveBytes(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race runtime's shadow allocations are not the program's; the non-race run enforces the bound")
	}
	const slack = 512
	follow := parsedMiss(t, endpointIterate, missBody(2, 2, "mct", false, 1))
	for _, sh := range estimateShapes {
		if !sh.ready {
			continue
		}
		for _, name := range heuristics.Names() {
			if !greedy(name) {
				continue
			}
			for _, ep := range []endpoint{endpointMap, endpointIterate} {
				label := fmt.Sprintf("%s %s %dx%d", ep, name, sh.tasks, sh.machines)
				reqs := []*parsedRequest{parsedMiss(t, ep, shapeBody(sh, name, false)), follow}
				sc := new(computeScratch)
				var live, fp [2]int64
				for i, q := range reqs {
					in, err := q.instance(sc)
					if err != nil {
						t.Fatal(err)
					}
					if _, aerr := q.run(in, sc); aerr != nil {
						t.Fatalf("%s: %s", label, aerr.msg)
					}
					live[i], fp[i] = int64(liveHeap()), int64(sc.footprint())
				}
				// What sc retains is what the heap loses with it.
				sc = nil
				base := int64(liveHeap())
				runtime.KeepAlive(reqs)
				for i := range live {
					if kept := live[i] - base; kept > fp[i]+slack {
						if i > 0 {
							label += ", then 2x2"
						}
						t.Errorf("%s: %d B live after GC, over the %d B footprint", label, kept, fp[i])
					}
				}
			}
		}
	}
}

// liveHeap returns the bytes of live heap objects after a full GC. The
// second cycle empties the sync.Pools' victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
