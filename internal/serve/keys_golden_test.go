package serve

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/etc"
	"repro/internal/rng"
)

// The canonical-key golden pins the key layout byte for byte. The disk
// tier stores its records under these keys, so a silent change to the
// layout would orphan every record of an existing store. Each line holds a
// corpus body's name, the builder (CanonicalKey on an endpoint, or
// BatchItemKey on the body as a batch item), whether it keyed, and the
// SHA-256 of the key. To regenerate after a deliberate format change
// (which orphans existing stores), delete the golden and run the test
// twice.
const keysGolden = "testdata/canonical_keys.golden"

// keyCorpusHeuristics rotate through the corpus; the list is fixed here so
// a new heuristic in the registry cannot reshuffle the golden.
var keyCorpusHeuristics = []string{"olb", "met", "mct", "min-min", "max-min", "duplex", "sufferage", "kpb", "swa", "genitor", "ga", "sa", "tabu"}

// keyCorpusBody is one corpus request: a body and the endpoint it keys on.
type keyCorpusBody struct {
	name string
	ep   endpoint
	body string
}

// keyCorpus builds the seeded corpus: every shape from 1×1 to 128×16 over
// the twelve ETC classes, with integer and float cells, rotating the
// endpoint, tie policy (absent, det, random), seeding and ready times
// (absent, all zero, non-zero) so every combination occurs; then a few
// hand-written bodies, including encodings only encoding/json accepts and
// bodies that have no key.
func keyCorpus(t testing.TB) []keyCorpusBody {
	t.Helper()
	shapes := []struct{ tasks, machines int }{{1, 1}, {1, 6}, {4, 3}, {9, 1}, {32, 8}, {128, 16}}
	var out []keyCorpusBody
	i := 0
	for si, sh := range shapes {
		for ci, c := range etc.AllClasses() {
			for _, integer := range []bool{false, true} {
				src := rng.New(uint64(7000 + 100*si + 2*ci))
				if integer {
					src = rng.New(uint64(7001 + 100*si + 2*ci))
				}
				m, err := etc.GenerateClass(c, sh.tasks, sh.machines, src)
				if err != nil {
					t.Fatal(err)
				}
				var b []byte
				b = append(b, `{"etc":[`...)
				for r := 0; r < m.Tasks(); r++ {
					if r > 0 {
						b = append(b, ',')
					}
					b = append(b, '[')
					for col := 0; col < m.Machines(); col++ {
						if col > 0 {
							b = append(b, ',')
						}
						v := m.At(r, col)
						if integer {
							b = strconv.AppendFloat(b, math.Ceil(v), 'f', -1, 64)
						} else {
							b = strconv.AppendFloat(b, v, 'g', -1, 64)
						}
					}
					b = append(b, ']')
				}
				b = append(b, ']')
				switch (i / 12) % 3 { // ready times
				case 1:
					b = append(b, `,"ready":[`...)
					for col := 0; col < sh.machines; col++ {
						if col > 0 {
							b = append(b, ',')
						}
						b = append(b, '0')
					}
					b = append(b, ']')
				case 2:
					b = append(b, `,"ready":[`...)
					for col := 0; col < sh.machines; col++ {
						if col > 0 {
							b = append(b, ',')
						}
						b = strconv.AppendFloat(b, float64(col)*12.5+src.UniformRange(0, 3), 'g', -1, 64)
					}
					b = append(b, ']')
				}
				b = append(b, `,"heuristic":"`...)
				b = append(b, keyCorpusHeuristics[i%len(keyCorpusHeuristics)]...)
				b = append(b, '"')
				switch (i / 2) % 3 { // tie policy
				case 1:
					b = append(b, `,"ties":"det"`...)
				case 2:
					b = append(b, `,"ties":"random"`...)
				}
				b = append(b, `,"seed":`...)
				b = strconv.AppendUint(b, uint64(i)*0x9e3779b97f4a7c15, 10)
				if (i/6)%2 == 1 {
					b = append(b, `,"seeded":true`...)
				}
				if i%5 == 0 {
					b = append(b, `,"timeout_ms":250`...)
				}
				b = append(b, '}')
				ep := endpointMap
				if i%2 == 1 {
					ep = endpointIterate
				}
				kind := "float"
				if integer {
					kind = "int"
				}
				out = append(out, keyCorpusBody{fmt.Sprintf("%dx%d-%s-%s", sh.tasks, sh.machines, c.Label(), kind), ep, string(b)})
				i++
			}
		}
	}
	for _, h := range []struct{ name, body string }{
		{"table1", `{"etc":[[5,3,6],[4,1,1],[5,3,2],[5,5,4]],"heuristic":"min-min","ties":"det","seed":1}`},
		{"table1-reflowed", " {\n \"seed\" : 1 , \"ties\" : \"det\" ,\n \"heuristic\" : \"min-min\" , \"etc\" : [ [ 5.0 , 3e0 , 60e-1 ] , [ 4 , 1 , 1 ] , [ 5 , 3 , 2 ] , [ 5 , 5 , 4 ] ] } "},
		{"table1-escaped", `{"etc":[[5,3,6],[4,1,1],[5,3,2],[5,5,4]],"heuristic":"min\u002dmin","ties":"det","seed":1}`},
		{"table1-casefolded", `{"ETC":[[5,3,6],[4,1,1],[5,3,2],[5,5,4]],"Heuristic":"min-min","Ties":"det","Seed":1}`},
		{"table1-null-ready", `{"etc":[[5,3,6],[4,1,1],[5,3,2],[5,5,4]],"ready":null,"heuristic":"min-min","seed":1}`},
		{"negzero-ready", `{"etc":[[1.5,2.25]],"ready":[-0,0],"heuristic":"mct","ties":"random","seed":18446744073709551615,"seeded":true}`},
		{"tiny-cells", `{"etc":[[5e-324,1e-300],[1.7976931348623157e308,2.5]],"heuristic":"olb"}`},
		{"long-mantissa", `{"etc":[[1.00000000000000000000000000001,2718.28182845904523536028747135266249775724709369995]],"heuristic":"met","ties":"det"}`},
		{"no-heuristic", `{"etc":[[1,2]]}`},
		{"bad-heuristic", `{"etc":[[1,2]],"heuristic":"nope"}`},
		{"bad-ties", `{"etc":[[1,2]],"heuristic":"mct","ties":"maybe"}`},
		{"bad-cell", `{"etc":[[1,0]],"heuristic":"mct"}`},
		{"ragged", `{"etc":[[1,2],[3]],"heuristic":"mct"}`},
		{"short-ready", `{"etc":[[1,2]],"ready":[1],"heuristic":"mct"}`},
		{"negative-ready", `{"etc":[[1,2]],"ready":[1,-1],"heuristic":"mct"}`},
		{"negative-timeout", `{"etc":[[1,2]],"heuristic":"mct","timeout_ms":-1}`},
		{"no-tasks", `{"etc":[],"heuristic":"mct"}`},
		{"no-machines", `{"etc":[[]],"heuristic":"mct"}`},
		{"malformed", `{"etc":[[1,2]],"heuristic":"mct"`},
	} {
		for _, ep := range []endpoint{endpointMap, endpointIterate} {
			out = append(out, keyCorpusBody{h.name, ep, h.body})
		}
	}
	return out
}

// renderKeyCorpus keys every corpus body with CanonicalKey and, as a batch
// item carrying its endpoint, with BatchItemKey.
func renderKeyCorpus(t testing.TB) []byte {
	var out bytes.Buffer
	line := func(name, builder, key string, ok bool) {
		sum := "-"
		if ok {
			sum = fmt.Sprintf("%x", sha256.Sum256([]byte(key)))
		}
		fmt.Fprintf(&out, "%s %s ok=%v %s\n", name, builder, ok, sum)
	}
	for _, c := range keyCorpus(t) {
		key, ok := CanonicalKey(string(c.ep), []byte(c.body))
		line(c.name, "key"+string(c.ep), key, ok)
		item := `{"endpoint":"` + strings.TrimPrefix(string(c.ep), "/v1/") + `",` + strings.TrimPrefix(strings.TrimLeft(c.body, " \n"), "{")
		ikey, iok := BatchItemKey([]byte(item))
		line(c.name, "item"+string(c.ep), ikey, iok)
		if ok && (!iok || ikey != key) {
			t.Errorf("%s on %s: the batch item keys differently from the singleton body", c.name, c.ep)
		}
	}
	return out.Bytes()
}

func TestCanonicalKeysGolden(t *testing.T) {
	got := renderKeyCorpus(t)
	want, err := os.ReadFile(keysGolden)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(keysGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(keysGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s (%d lines); rerun to compare", keysGolden, bytes.Count(got, []byte("\n")))
	}
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		g, w := "<missing>", "<missing>"
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n  want %s\n  got  %s", i+1, w, g)
			if shown++; shown == 5 {
				break
			}
		}
	}
	t.Fatalf("canonical keys differ from %s: the store's record keys changed", keysGolden)
}
