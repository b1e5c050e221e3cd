package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/rng"
)

// matrixBody builds a canonical /v1/iterate body for a seeded tasks×machines
// matrix, formatted the way clients write floats ('g', shortest).
func matrixBody(tasks, machines int, seed uint64) []byte {
	r := rng.New(seed)
	b := []byte(`{"etc":[`)
	for t := 0; t < tasks; t++ {
		if t > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for m := 0; m < machines; m++ {
			if m > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, r.UniformRange(1, 3000), 'g', -1, 64)
		}
		b = append(b, ']')
	}
	b = append(b, `],"heuristic":"min-min","ties":"random","seed":`...)
	b = strconv.AppendUint(b, seed, 10)
	return append(b, '}')
}

// decodeSeeds are hand-picked request bodies on both sides of the fast
// path's canonical subset; the fuzz targets start from these plus the
// committed corpus under testdata/fuzz.
var decodeSeeds = []string{
	`{"etc":[[5,3,6],[4,1,1],[5,3,2],[5,5,4]],"heuristic":"min-min","ties":"det","seed":1}`,
	` { "etc" : [ [ 1.5e3 , 2E-2 ] ] , "ready" : [ 0 , -0 ] , "seeded" : true , "timeout_ms" : -7 } `,
	`{"etc":[[]],"ready":[]}`,
	`{"etc":[]}`,
	`{}`,
	`{"etc":null}`,
	`{"ETC":[[1]]}`,
	`{"etc":[[1]],"etc":[[2]]}`,
	`{"heuristic":"min-min"}`,
	`{"etc":[[1e400]]}`,
	`{"etc":[[01]]}`,
	`{"seed":-1}`,
	`{"seed":1.0}`,
	`{"seed":18446744073709551616}`,
	`{"timeout_ms":9223372036854775808}`,
	`{"seeded":1}`,
	`{"endpoint":"map","etc":[[1]]}`,
	`{"etc":[[1,2]],"heuristic":"min-min"}]]]garbage`,
	`{"etc":[[1]]}}`,
	`{"etc":[[1]]} {}`,
	`{"etc":[[1,]]}`,
	`{"etc":[[1]],}`,
	`{"heuristic":"é"}`,
	"{\"heuristic\":\"a\tb\"}",
	`{"bogus":1}`,
	``,
	`{"etc":[[1,2]],"ready":[1,-2,3],"heuristic":"nope","ties":"x","timeout_ms":-1}`,
	`{"etc":[[1,2]],"ready":[],"heuristic":"olb","ties":"random"}`,
}

// sameAPIError reports whether two decode outcomes are the same envelope.
func sameAPIError(a, b *apiError) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.status == b.status && a.code == b.code && a.msg == b.msg
}

// sameAdmit fails t unless admitting d gives what admitting the
// encoding/json value want gives: the same envelope, field errors
// included, or the same key.
func sameAdmit(t *testing.T, d decodedRequest, want Request, body []byte) {
	t.Helper()
	p, err := d.admit(endpointIterate, limits{})
	wp, wantErr := admitRequest(endpointIterate, want, limits{})
	switch {
	case !sameAPIError(err, wantErr):
		t.Fatalf("admit = %v, encoding/json path = %v: %q", err, wantErr, body)
	case err != nil && !reflect.DeepEqual(err.fields, wantErr.fields):
		t.Fatalf("admit fields %v, encoding/json path %v: %q", err.fields, wantErr.fields, body)
	case err == nil && p.key != wp.key:
		t.Fatalf("admit key differs from the encoding/json path's: %q", body)
	}
}

// flatItem is the value a fast-path decode stands for, its matrix rebuilt
// in rows, for comparison with encoding/json's.
func flatItem(r flatRequest) BatchItem {
	it := BatchItem{Endpoint: string(r.endpoint), Request: Request{
		Heuristic: string(r.heuristic), Ties: string(r.ties), Seed: r.seed,
		Seeded: r.seeded, TimeoutMS: r.timeoutMS,
	}}
	for t := 0; t < r.tasks; t++ {
		it.ETC = append(it.ETC, append([]float64{}, r.cells[t*r.machines:(t+1)*r.machines]...))
	}
	if r.hasReady {
		it.Ready = append([]float64{}, r.ready...)
	}
	return it
}

// decodedItem is the value a decodeBody result stands for.
func decodedItem(d decodedRequest) BatchItem {
	if d.fast {
		return flatItem(d.flat)
	}
	return BatchItem{Endpoint: string(d.endpoint), Request: d.slow}
}

// FuzzDecodeRequest holds the one-pass decoder to encoding/json: whatever
// the fast path accepts, encoding/json accepts with a reflect.DeepEqual
// result (nil versus empty slices included), and decodeBody's output —
// value and error envelope — always equals the encoding/json path's, as
// does admitting it (the 422 and its field errors, or the key).
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		slow, slowErr := decodeRequestSlow(body)
		var sc reqScratch
		if r, ok := decodeFast(body, false, &sc); ok {
			if slowErr != nil {
				t.Fatalf("fast path accepted what encoding/json rejects (%s): %q", slowErr.msg, body)
			}
			if it := flatItem(r); it.Endpoint != "" || !reflect.DeepEqual(it.Request, slow) {
				t.Fatalf("fast %#v\nslow %#v\nbody %q", it, slow, body)
			}
		}
		d, gotErr := decodeBody(body, false, &sc)
		if !sameAPIError(gotErr, slowErr) || gotErr == nil && !reflect.DeepEqual(decodedItem(d), BatchItem{Request: slow}) {
			t.Fatalf("decodeBody = (%#v, %v), encoding/json path = (%#v, %v)", d, gotErr, slow, slowErr)
		}
		if gotErr == nil {
			sameAdmit(t, d, slow, body)
		}
	})
}

// FuzzParseBatchItem is FuzzDecodeRequest for parseBatchItem's decode
// step, where "endpoint" is a known field.
func FuzzParseBatchItem(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		slow, slowErr := decodeBatchItemSlow(raw)
		var sc reqScratch
		if r, ok := decodeFast(raw, true, &sc); ok {
			if slowErr != nil {
				t.Fatalf("fast path accepted what encoding/json rejects (%s): %q", slowErr.msg, raw)
			}
			if it := flatItem(r); !reflect.DeepEqual(it, slow) {
				t.Fatalf("fast %#v\nslow %#v\nraw %q", it, slow, raw)
			}
		}
		d, gotErr := decodeBody(raw, true, &sc)
		if !sameAPIError(gotErr, slowErr) || gotErr == nil && !reflect.DeepEqual(decodedItem(d), slow) {
			t.Fatalf("decodeBody = (%#v, %v), encoding/json path = (%#v, %v)", d, gotErr, slow, slowErr)
		}
		if gotErr == nil {
			sameAdmit(t, d, slow.Request, raw)
		}
	})
}

// FuzzCanonicalKey holds the key-first builder to the row-based one it
// replaced (key_oracle_test.go): CanonicalKey and BatchItemKey give every
// body the same verdict and byte-identical keys as the oracle. It also
// pins the property a gateway route memo leans on: the canonical key is a
// function of the request, not of its encoding. For every body that has a
// key on an endpoint, repeated calls agree, and both json.Marshal of the
// decoded request and whitespace-reflowed copies of the body (indented,
// compacted) get the same key.
func FuzzCanonicalKey(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Add(matrixBody(4, 3, 1))
	f.Add([]byte(`{"etc":[[1,2],[3,4.5]],"ready":[0.5,-0],"heuristic":"sufferage","ties":"random","seed":9,"seeded":true}`))
	f.Add([]byte(`{"endpoint":"iterate","etc":[[1,2]],"ready":[1,2],"heuristic":"olb","ties":"det"}`))
	f.Add([]byte(`{"etc":[[1,2]],"ready":[1],"heuristic":"olb"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		key, ok := BatchItemKey(body)
		if want, wantOK := oracleBatchItemKey(body); ok != wantOK || key != want {
			t.Fatalf("BatchItemKey = (%q, %v), oracle (%q, %v): %q", key, ok, want, wantOK, body)
		}
		for _, ep := range []string{"/v1/map", "/v1/iterate"} {
			key, ok := CanonicalKey(ep, body)
			if want, wantOK := oracleCanonicalKey(ep, body); ok != wantOK || key != want {
				t.Fatalf("%s: CanonicalKey = (%q, %v), oracle (%q, %v): %q", ep, key, ok, want, wantOK, body)
			}
			if again, okAgain := CanonicalKey(ep, body); again != key || okAgain != ok {
				t.Fatalf("%s: repeated calls disagree on %q", ep, body)
			}
			if !ok {
				continue
			}
			rq, aerr := decodeRequestSlow(body)
			if aerr != nil {
				t.Fatalf("%s: keyed body fails to decode (%s): %q", ep, aerr.msg, body)
			}
			marshaled, err := json.Marshal(rq)
			if err != nil {
				t.Fatal(err)
			}
			var indented, compacted bytes.Buffer
			if err := json.Indent(&indented, body, " ", "\t"); err != nil {
				t.Fatalf("%s: keyed body is not valid JSON (%v): %q", ep, err, body)
			}
			if err := json.Compact(&compacted, body); err != nil {
				t.Fatal(err)
			}
			for _, enc := range [][]byte{marshaled, indented.Bytes(), compacted.Bytes()} {
				if got, ok := CanonicalKey(ep, enc); !ok || got != key {
					t.Fatalf("%s: re-encoding %q of %q keys differently (ok=%v)", ep, enc, body, ok)
				}
			}
		}
	})
}

// FuzzSplitBatch holds the structural splitter to encoding/json. The
// splitter checks envelope structure, not item syntax, so when it accepts
// a body encoding/json rejects, some item must be invalid JSON — that item
// then gets its own 400 from parseBatchItem inside a 200 envelope.
// Otherwise the two must agree on every extent.
func FuzzSplitBatch(f *testing.F) {
	f.Add([]byte(`{"items":[]}`))
	f.Add([]byte(`{"items":[{"endpoint":"map","etc":[[1]]}, 7 ,"s",[1,{}],null,true]}`))
	f.Add([]byte(`{"items":[{"s":"]}\""}]} `))
	f.Add([]byte(`{"items":[x]}`))
	f.Add([]byte(`{"items":[]}]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		fast, ok := splitBatchFast(body)
		if !ok {
			return
		}
		slow, slowErr := splitBatchSlow(body)
		if slowErr != nil {
			for _, item := range fast {
				if !json.Valid(item) {
					return
				}
			}
			t.Fatalf("fast split accepted valid items encoding/json rejects (%s): %q", slowErr.msg, body)
		}
		if len(fast) != len(slow) {
			t.Fatalf("item counts differ (%d vs %d): %q", len(fast), len(slow), body)
		}
		for i := range fast {
			if string(fast[i]) != string(slow[i]) {
				t.Fatalf("item %d extent differs: fast %q slow %q", i, fast[i], slow[i])
			}
		}
	})
}

// TestTrailingDataRejected pins the trailing-data rule on every decode
// entry point: anything but whitespace after the value is a 400, including
// the ']' and '}' that json.Decoder.More does not report.
func TestTrailingDataRejected(t *testing.T) {
	const (
		single = `{"etc":[[1,2]],"heuristic":"min-min"}`
		item   = `{"endpoint":"map","etc":[[1,2]],"heuristic":"min-min"}`
	)
	s := NewServer(Options{})
	defer drain(t, s)
	for _, tail := range []string{"]", "}", "]]]garbage", " } ", "x", "{}"} {
		t.Run(strconv.Quote(tail), func(t *testing.T) {
			cases := []struct {
				name, path, body, msg string
			}{
				{"singleton", "/v1/map", single + tail, "request body has trailing data"},
				{"batch envelope", "/v1/batch", `{"items":[` + item + `]}` + tail, "request body has trailing data"},
			}
			for _, tc := range cases {
				rec := post(s, tc.path, tc.body)
				var env ErrorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusBadRequest ||
					env.Error.Code != CodeBadRequest || env.Error.Message != tc.msg {
					t.Errorf("%s: status %d body %s, want 400 %q", tc.name, rec.Code, rec.Body.String(), tc.msg)
				}
			}
			if _, aerr := parseBatchItem([]byte(item+tail), limits{}, &reqScratch{}); aerr == nil ||
				aerr.status != http.StatusBadRequest || aerr.msg != "batch item has trailing data" {
				t.Errorf("batch item: got %v, want 400 trailing data", aerr)
			}
			if _, ok := CanonicalKey("/v1/map", []byte(single+tail)); ok {
				t.Error("CanonicalKey keyed a body with trailing data")
			}
			if _, ok := BatchItemKey([]byte(item + tail)); ok {
				t.Error("BatchItemKey keyed an item with trailing data")
			}
		})
	}
	// The untouched bodies are fine, and whitespace is not trailing data.
	if rec := post(s, "/v1/map", single+" \n"); rec.Code != http.StatusOK {
		t.Fatalf("whitespace-terminated body: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestDecodeFastTakesCanonicalBodies checks that the bodies real clients
// send — including the benchmark corpus shape — take the fast path, and
// that matrices no key can be written for (empty, ragged, a cell that is
// not positive) leave it for encoding/json and validateRequest.
func TestDecodeFastTakesCanonicalBodies(t *testing.T) {
	var sc reqScratch
	for _, body := range []string{
		decodeSeeds[0], decodeSeeds[1], string(matrixBody(32, 8, 3)),
		iterateBody("sufferage", "random", 42),
	} {
		if _, ok := decodeFast([]byte(body), false, &sc); !ok {
			t.Errorf("fast path declined canonical body %q", body)
		}
	}
	if _, ok := decodeFast([]byte(batchItemJSON("iterate", decodeSeeds[0])), true, &sc); !ok {
		t.Error("fast path declined a canonical batch item")
	}
	for _, body := range []string{
		decodeSeeds[2], decodeSeeds[3], decodeSeeds[4], decodeSeeds[8],
		`{"etc":[[1,2],[3]]}`, `{"etc":[[1],[2,3]]}`, `{"etc":[[1,0]]}`, `{"etc":[[1],[-2]]}`,
		`{"etc":[[1],[-0]]}`, `{"etc":[[5e-325]]}`, `{"etc":[[1],[]]}`,
	} {
		if _, ok := decodeFast([]byte(body), false, &sc); ok {
			t.Errorf("fast path took %q, which has no key", body)
		}
	}
}

// TestDecodeAllocs is the decoder's allocation guard at 32×8: the cells go
// to the request scratch and the strings alias the body, so a decode
// allocates nothing.
func TestDecodeAllocs(t *testing.T) {
	body := matrixBody(32, 8, 1)
	var sc reqScratch
	got := testing.AllocsPerRun(100, func() {
		if _, aerr := decodeBody(body, false, &sc); aerr != nil {
			t.Fatal(aerr.msg)
		}
	})
	if got > 0 {
		t.Fatalf("decoding a 32x8 request costs %.0f allocs, budget 0", got)
	}
}

// TestCanonicalKeyAllocs is the key-first budget: CanonicalKey builds no
// matrix and no instance, so a 32×8 key costs the key and the parsed
// request around it.
func TestCanonicalKeyAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	body := matrixBody(32, 8, 1)
	got := testing.AllocsPerRun(100, func() {
		if _, ok := CanonicalKey("/v1/iterate", body); !ok {
			t.Fatal("no canonical key")
		}
	})
	if got > 2 {
		t.Fatalf("keying a 32x8 request costs %.0f allocs, budget 2", got)
	}
}

func BenchmarkDecodeRequest(b *testing.B) {
	body := matrixBody(32, 8, 1)
	var sc reqScratch
	b.ReportAllocs()
	for b.Loop() {
		if _, aerr := decodeBody(body, false, &sc); aerr != nil {
			b.Fatal(aerr.msg)
		}
	}
}

// BenchmarkCanonicalKey is the gateway's per-request routing cost: decode,
// admission and the canonical key build.
func BenchmarkCanonicalKey(b *testing.B) {
	for _, sz := range []struct {
		name            string
		tasks, machines int
	}{{"32x8", 32, 8}, {"128x16", 128, 16}} {
		body := matrixBody(sz.tasks, sz.machines, 1)
		b.Run(sz.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, ok := CanonicalKey("/v1/iterate", body); !ok {
					b.Fatal("no canonical key")
				}
			}
		})
	}
}
