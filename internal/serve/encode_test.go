package serve

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/heuristics"
)

// referenceMarshal is the wire form marshalResponse must reproduce:
// json.Marshal plus the canonical trailing newline.
func referenceMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	return append(b, '\n')
}

// checkEncoding asserts marshalResponse(v) is byte-identical to the
// reference and returned at its exact size.
func checkEncoding(t *testing.T, name string, v any) {
	t.Helper()
	got, aerr := marshalResponse(v)
	if aerr != nil {
		t.Fatalf("%s: marshalResponse: %s", name, aerr.msg)
	}
	if want := referenceMarshal(t, v); string(got) != string(want) {
		t.Fatalf("%s: encoding differs from json.Marshal\n got %s\nwant %s", name, got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("%s: body has cap %d for len %d, want exact size", name, cap(got), len(got))
	}
}

// runFresh computes p on a fresh worker scratch and returns its response
// value.
func runFresh(t testing.TB, p *parsedRequest) any {
	t.Helper()
	sc := new(computeScratch)
	in, err := p.instance(sc)
	if err != nil {
		t.Fatal(err)
	}
	v, aerr := p.run(in, sc)
	if aerr != nil {
		t.Fatalf("%s: %s", p.heuristic, aerr.msg)
	}
	return v
}

// TestEncodeMatchesJSONMarshal is the encoder differential over seeded
// engine output: every heuristic, both endpoints, both tie policies,
// seeded and unseeded, at several matrix shapes.
func TestEncodeMatchesJSONMarshal(t *testing.T) {
	shapes := []struct{ tasks, machines int }{{1, 1}, {4, 3}, {32, 8}, {9, 16}}
	for si, sh := range shapes {
		for hi, h := range heuristics.Names() {
			for _, ep := range []endpoint{endpointMap, endpointIterate} {
				seed := uint64(100*si + hi + 1)
				rq, aerr := decodeRequestSlow(matrixBody(sh.tasks, sh.machines, seed))
				if aerr != nil {
					t.Fatal(aerr.msg)
				}
				rq.Heuristic = h
				rq.Seeded = hi%2 == 0
				if hi%3 == 0 {
					rq.Ties = "det"
				}
				p, aerr := admitRequest(ep, rq, unguarded)
				if aerr != nil {
					t.Fatalf("%s: %s", h, aerr.msg)
				}
				checkEncoding(t, string(ep)+" "+h, runFresh(t, p))
			}
		}
	}
}

// TestEncodeEdgeValues covers what engine output rarely reaches: the float
// format switch points, signed zero, subnormals, nil slices, and strings
// that need escaping.
func TestEncodeEdgeValues(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, math.Nextafter(1e-6, 0), 1e-7, -1e-7,
		1e20, math.Nextafter(1e21, 0), 1e21, -1e21, 1e-9, 1.5e-10, 123456789012345678,
		math.SmallestNonzeroFloat64, 1e-310, -4.9e-324, 2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64, 3000.0000000000005,
	}
	strs := []string{"", "min-min", `<a href="x">&</a>`, "tab\there\nnl\\", "\x00\x1f\x7f", "é\u2028ü\u2029☃", "\u2028\u2029", "bad\xffutf8\xc3"}
	checkEncoding(t, "map floats", &MapResponse{Heuristic: strs[2], Ties: strs[3], Seed: math.MaxUint64,
		Tasks: -1, Machines: math.MaxInt64, Assign: []int{0, -5, math.MinInt64}, Completion: floats, Makespan: 1e-7})
	checkEncoding(t, "map nil slices", &MapResponse{})
	checkEncoding(t, "map empty slices", &MapResponse{Assign: []int{}, Completion: []float64{}})
	checkEncoding(t, "iterate nil slices", &IterateResponse{})
	checkEncoding(t, "iterate edges", &IterateResponse{
		Heuristic: strs[4], Ties: strs[5], Seed: 7, Tasks: 2, Machines: 3,
		Iterations: []IterationResult{
			{Index: 0, Tasks: []int{0, 1}, Machines: []int{0, 1, 2}, Assign: []int{2, 0}, Completion: floats, Makespan: math.Nextafter(1e21, 0), MakespanMachine: 2, Frozen: 2},
			{Index: 1, Frozen: -1},
		},
		FinalAssign: []int{}, FinalCompletion: floats[:3], OriginalMakespan: 1e21, FinalMakespan: math.Copysign(0, -1),
		MakespanIncreased: true, Outcomes: strs,
	})
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v := &IterateResponse{Iterations: []IterationResult{{Completion: []float64{1, f}}}, FinalMakespan: math.NaN()}
		_, want := json.Marshal(v)
		body, aerr := marshalResponse(v)
		if want == nil || aerr == nil || body != nil || aerr.msg != want.Error() || aerr.code != CodeInternal {
			t.Fatalf("non-finite %v: got (%q, %v), want internal error %q", f, body, aerr, want)
		}
	}
}

func BenchmarkMarshalIterate(b *testing.B) {
	rq, aerr := decodeRequestSlow(matrixBody(32, 8, 1))
	if aerr != nil {
		b.Fatal(aerr.msg)
	}
	p, aerr := admitRequest(endpointIterate, rq, unguarded)
	if aerr != nil {
		b.Fatal(aerr.msg)
	}
	v := runFresh(b, p)
	b.ReportAllocs()
	for b.Loop() {
		if _, aerr := marshalResponse(v); aerr != nil {
			b.Fatal(aerr.msg)
		}
	}
}
