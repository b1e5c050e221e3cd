package serve

import (
	"fmt"
	"regexp"
	"testing"

	"repro/internal/heuristics"
)

// TestEstimateBytesCoversFootprint: for a grid of shapes, every greedy
// heuristic, plain and seeded, and both endpoints, the compute scratch a
// warm worker keeps after the request — the decoded instance, the
// engine's workspace with the heuristics' run scratch, and the response
// value — is at most estimateBytes, the admission guard's charge for the
// request. The uniform shapes hold every cell equal, so every pair ties
// and the kernels' candidate lists reach their bound.
func TestEstimateBytesCoversFootprint(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("footprints do not depend on the race detector, which slows this grid twentyfold; the non-race run enforces the bound")
	}
	shapes := []struct {
		tasks, machines int
		uniform         bool
	}{
		{1, 1000, false}, {4, 1000, false}, {1000, 4, false}, {64, 8, false},
		{128, 16, false}, {256, 64, false}, {128, 16, true}, {1000, 4, true},
	}
	for _, sh := range shapes {
		for _, name := range heuristics.Names() {
			if !greedy(name) {
				continue
			}
			for _, seeded := range []bool{false, true} {
				for _, ep := range []endpoint{endpointMap, endpointIterate} {
					label := fmt.Sprintf("%s %s seeded=%v %dx%d uniform=%v", ep, name, seeded, sh.tasks, sh.machines, sh.uniform)
					body := missBody(sh.tasks, sh.machines, name, seeded, 1)
					if sh.uniform {
						body = cellPattern.ReplaceAllString(body, "7")
					}
					var rsc reqScratch
					d, aerr := decodeBody([]byte(body), false, &rsc)
					if aerr != nil {
						t.Fatalf("%s: %s", label, aerr.msg)
					}
					p, aerr := d.admit(ep, limits{})
					if aerr != nil {
						t.Fatalf("%s: %s", label, aerr.msg)
					}
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
					cells := int64(sh.tasks * sh.machines)
					est := estimateBytes(ep, cells, int64(sh.tasks), int64(sh.machines))
					if got := int64(sc.footprint()); got > est {
						t.Errorf("%s: a warm worker keeps %d B, over the %d B estimate", label, got, est)
					}
				}
			}
		}
	}
}

// greedy reports whether the named heuristic maps into caller storage.
func greedy(name string) bool {
	h, err := heuristics.ByName(name, 1)
	if err != nil {
		return false
	}
	_, ok := h.(heuristics.Into)
	return ok
}

// cellPattern matches a float cell of matrixBody.
var cellPattern = regexp.MustCompile(`\d+(\.\d+)?(e[-+]?\d+)?`)
