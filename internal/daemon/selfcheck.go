package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Table1 is the selfchecks' pinned /v1/iterate body: the paper's Table-1
// matrix (experiments.MinMinExampleETC) under deterministic Min-Min, seed
// 1. Min-Min gives machine completions (5, 4, 2), and by the paper's
// invariance theorem the iterative technique changes nothing.
func Table1() []byte {
	body, err := json.Marshal(serve.Request{
		ETC:       experiments.MinMinExampleETC().Values(),
		Heuristic: "min-min",
		Ties:      "det",
		Seed:      1,
	})
	if err != nil {
		panic(err) // a fixed value of a plain struct always marshals
	}
	return body
}

// Check is the harness a -selfcheck runs on: the daemon's own handler on
// an ephemeral loopback listener, driven over real HTTP.
type Check struct {
	Base  string // http://127.0.0.1:<port>
	out   io.Writer
	spans *obs.Collector
}

// RunCheck serves h on an ephemeral loopback port and runs check against
// it, then stops h and d in Serve's order whatever check returned, and
// prints the last line once both passed. spans is the collector wired
// into the daemon's tracer (Logs.Tracer).
func RunCheck(name string, h http.Handler, d Drainer, spans *obs.Collector, out io.Writer, check func(*Check) error) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	c := &Check{Base: "http://" + ln.Addr().String(), out: out, spans: spans}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	fmt.Fprintf(out, "%s: selfcheck against %s\n", name, c.Base)
	err = check(c)
	if serr := stop(hs, d, 10*time.Second); err == nil {
		err = serr
	}
	if err == nil {
		c.OK("drained")
	}
	return err
}

// OK prints one passed check.
func (c *Check) OK(format string, args ...any) {
	fmt.Fprintf(c.out, "[ok  ] "+format+"\n", args...)
}

// Post posts body to path and returns the 200 response's body and header
// (X-Schedd-Cache, X-Schedd-Trace).
func (c *Check) Post(path string, body []byte) ([]byte, http.Header, error) {
	return readOK(http.Post(c.Base+path, "application/json", bytes.NewReader(body)))
}

// Get fetches path and, unless v is nil, decodes the 200 response's JSON
// body into v. It returns the body for error messages.
func (c *Check) Get(path string, v any) ([]byte, error) {
	body, _, err := readOK(http.Get(c.Base + path))
	if err == nil && v != nil {
		if err = json.Unmarshal(body, v); err != nil {
			err = fmt.Errorf("decoding %s: %w", path, err)
		}
	}
	return body, err
}

// readOK reads a response that must be a 200.
func readOK(resp *http.Response, err error) ([]byte, http.Header, error) {
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("%s: status %d: %s", resp.Request.URL.Path, resp.StatusCode, body)
	}
	return body, resp.Header, nil
}

// Tree is one collected trace: its root span and the stages under it.
type Tree struct {
	Root   obs.Span
	Stages map[string]bool
}

// Traces waits until n traces have landed in the collector and returns
// them in root order, failing unless the spans form exactly n well-formed
// trees. Spans are emitted when the handler finishes, which can trail the
// response bytes by a scheduler beat; a trace emits its root first and
// its write stage last, so n write spans mean n complete trees. The spans
// are deterministic, only their arrival needs the grace period (at most
// 5 s).
func (c *Check) Traces(n int) ([]Tree, error) {
	var all []obs.Span
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		all = all[:0]
		writes := 0
		for _, e := range c.spans.Events() {
			if sp, ok := e.(obs.Span); ok {
				all = append(all, sp)
				if sp.Name == "write" {
					writes++
				}
			}
		}
		if writes >= n || time.Now().After(deadline) {
			break
		}
	}
	if sum := obs.SummarizeSpans(all); !sum.WellFormed() || sum.Roots != n {
		return nil, fmt.Errorf("%d well-formed roots for %d requests (malformed: %v)", sum.Roots, n, sum.Malformed)
	}
	var trees []Tree
	for _, root := range all {
		if root.ParentID != 0 {
			continue
		}
		t := Tree{Root: root, Stages: map[string]bool{}}
		for _, sp := range all {
			if sp.TraceID == root.TraceID && sp.ParentID != 0 {
				t.Stages[sp.Name] = true
			}
		}
		trees = append(trees, t)
	}
	return trees, nil
}
