package serve

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// bytewiseScanJSONValue is the byte-at-a-time scanner scanJSONValue
// replaced, kept here as its oracle: one compare-and-branch step per byte,
// with depth, string and escape state.
func bytewiseScanJSONValue(b []byte, i int) (int, bool) {
	depth := 0
	inStr, esc := false, false
	for ; i < len(b); i++ {
		c := b[i]
		if inStr {
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inStr = false
				if depth == 0 {
					return i + 1, true
				}
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return i, true
			}
			depth--
			if depth == 0 {
				return i + 1, true
			}
		case ',':
			if depth == 0 {
				return i, true
			}
		case ' ', '\t', '\n', '\r':
			if depth == 0 {
				return i, true
			}
		}
	}
	return i, depth == 0 && !inStr
}

// checkScanAllOffsets holds scanJSONValue to the bytewise oracle at every
// start offset of b, one past the end included.
func checkScanAllOffsets(t *testing.T, b []byte) {
	t.Helper()
	for i := 0; i <= len(b); i++ {
		gotEnd, gotOK := scanJSONValue(b, i)
		wantEnd, wantOK := bytewiseScanJSONValue(b, i)
		if gotEnd != wantEnd || gotOK != wantOK {
			t.Fatalf("scanJSONValue(%q, %d) = (%d, %v), bytewise oracle (%d, %v)",
				b, i, gotEnd, gotOK, wantEnd, wantOK)
		}
	}
}

// TestScanJSONValueMatchesBytewise: the word-skipping scanner returns the
// same end offset and ok as the bytewise one for every input and start
// offset — seeded random short strings over the structural bytes plus a
// few primitive ones (long runs of either kind, so both the word loop and
// the byte tail see every boundary), then real batch bodies.
func TestScanJSONValueMatchesBytewise(t *testing.T) {
	const structural = "\"\\{}[], \t"
	const plain = "ab1.e-"
	src := rng.New(19)
	for n := 0; n < 20000; n++ {
		// Bias per string: from mostly-structural to mostly-plain.
		pStructural := src.Float64()
		b := make([]byte, src.Intn(48))
		for i := range b {
			if src.Float64() < pStructural {
				b[i] = structural[src.Intn(len(structural))]
			} else {
				b[i] = plain[src.Intn(len(plain))]
			}
		}
		checkScanAllOffsets(t, b)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		items := make([]string, 3)
		for i := range items {
			items[i] = batchItemJSON("iterate", string(matrixBody(6, 4, seed*10+uint64(i))))
		}
		checkScanAllOffsets(t, []byte(batchBody(items...)))
	}
	checkScanAllOffsets(t, []byte(batchBody(
		batchItemJSON("map", `{"etc":[[1,2]],"heuristic":"mi\"n-\\min","ties":"det"}`),
		` "a\\\"b" `, `[1,[2,{"x":"]}"}]]`, `-1.5e3`)))
}

// BenchmarkSplitBatch measures the structural splitter alone on two batch
// shapes: 16 items of 32×8 (the disk-churn envelope) and one 128×16 item.
func BenchmarkSplitBatch(b *testing.B) {
	for _, sz := range []struct{ items, tasks, machines int }{{16, 32, 8}, {1, 128, 16}} {
		items := make([]string, sz.items)
		for i := range items {
			items[i] = batchItemJSON("iterate", string(matrixBody(sz.tasks, sz.machines, uint64(i+1))))
		}
		body := []byte(batchBody(items...))
		b.Run(fmt.Sprintf("%dx%dx%d", sz.items, sz.tasks, sz.machines), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if got, aerr := splitBatch(body); aerr != nil || len(got) != sz.items {
					b.Fatalf("split: %d items, err %v", len(got), aerr)
				}
			}
		})
	}
}
