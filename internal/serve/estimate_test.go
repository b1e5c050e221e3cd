package serve

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/heuristics"
)

// TestEstimateBytesCoversFootprint: for every shape of estimateShapes,
// every greedy heuristic, plain and seeded, and both endpoints, the compute
// scratch a warm worker keeps after the request — the decoded instance,
// the engine's workspace with the heuristics' run scratch, and the
// response value — is at most estimateBytes, the admission guard's charge
// for the request.
func TestEstimateBytesCoversFootprint(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("footprints do not depend on the race detector, which slows this grid twentyfold; the non-race run enforces the bound")
	}
	for _, sh := range estimateShapes {
		most := 0 // the longest trace over the shape
		for _, name := range heuristics.Names() {
			if !greedy(name) {
				continue
			}
			for _, seeded := range []bool{false, true} {
				for _, ep := range []endpoint{endpointMap, endpointIterate} {
					label := fmt.Sprintf("%s %s seeded=%v %dx%d uniform=%v ready=%v", ep, name, seeded, sh.tasks, sh.machines, sh.uniform, sh.ready)
					p := parsedMiss(t, ep, shapeBody(sh, name, seeded))
					sc := new(computeScratch)
					for warm := 0; warm < 2; warm++ {
						in, err := p.instance(sc)
						if err != nil {
							t.Fatal(err)
						}
						if _, aerr := p.run(in, sc); aerr != nil {
							t.Fatalf("%s: %s", label, aerr.msg)
						}
					}
					most = max(most, len(sc.iterResp.Iterations))
					cells := int64(sh.tasks * sh.machines)
					est := estimateBytes(ep, cells, int64(sh.tasks), int64(sh.machines), sh.readyTimes())
					if got := int64(sc.footprint()); got > est {
						t.Errorf("%s: a warm worker keeps %d B, over the %d B estimate", label, got, est)
					}
				}
			}
		}
		if sh.ready && most < sh.machines-1 {
			t.Errorf("%dx%d with ready times: the longest trace runs %d iterations, want at least %d",
				sh.tasks, sh.machines, most, sh.machines-1)
		}
	}
}

// estimateShape is a request shape of the footprint tests.
type estimateShape struct {
	tasks, machines int
	uniform, ready  bool
}

// estimateShapes are the footprint tests' shapes. The uniform shapes hold
// every cell equal, so every pair ties and the kernels' candidate lists
// reach their bound. The ready shapes send ready times that rise with the
// machine index, above any ETC entry, so the makespan machine is an idle
// one while any is left: the longest trace over each runs about M
// iterations, more than T when T < M.
var estimateShapes = []estimateShape{
	{1, 1000, false, false}, {4, 1000, false, false}, {1000, 4, false, false}, {64, 8, false, false},
	{128, 16, false, false}, {256, 64, false, false}, {128, 16, true, false}, {1000, 4, true, false},
	{1, 1000, false, true}, {4, 1000, false, true}, {1000, 4, false, true}, {8, 64, false, true},
	{64, 8, false, true}, {16, 128, true, true}, {1, 2, false, true}, {3, 3, true, true},
	{1, 1, false, false}, {2, 2, false, false},
}

// readyTimes returns the shape's ready times: nil, or 3000·(m+1) for
// machine m.
func (sh estimateShape) readyTimes() []float64 {
	if !sh.ready {
		return nil
	}
	ready := make([]float64, sh.machines)
	for m := range ready {
		ready[m] = 3000 * float64(m+1)
	}
	return ready
}

// shapeBody is the request body of a shape for heuristic.
func shapeBody(sh estimateShape, heuristic string, seeded bool) string {
	body := missBody(sh.tasks, sh.machines, heuristic, seeded, 1)
	if sh.uniform {
		body = cellPattern.ReplaceAllString(body, "7")
	}
	if sh.ready {
		js, _ := json.Marshal(sh.readyTimes())
		body = strings.Replace(body, `"heuristic":`, `"ready":`+string(js)+`,"heuristic":`, 1)
	}
	return body
}

// parsedMiss decodes and admits body on ep without the admission guards.
func parsedMiss(t *testing.T, ep endpoint, body string) *parsedRequest {
	t.Helper()
	var rsc reqScratch
	d, aerr := decodeBody([]byte(body), false, &rsc)
	if aerr != nil {
		t.Fatalf("%.80s: %s", body, aerr.msg)
	}
	p, aerr := d.admit(ep, unguarded)
	if aerr != nil {
		t.Fatalf("%.80s: %s", body, aerr.msg)
	}
	return p
}

// greedy reports whether the named heuristic is a greedy one, not a
// search. A search keeps nothing in a worker's scratch beyond its greedy
// starting mapping's, and takes seconds at the grid's largest shapes.
func greedy(name string) bool {
	h, err := heuristics.ByName(name, 1)
	if err != nil {
		return false
	}
	_, search := h.(heuristics.Seedable)
	return !search
}

// cellPattern matches a float cell of matrixBody.
var cellPattern = regexp.MustCompile(`\d+(\.\d+)?(e[-+]?\d+)?`)
