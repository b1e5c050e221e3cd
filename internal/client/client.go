// Package client is the resilient schedd client: bounded retries with
// seeded-jitter exponential backoff, per-attempt timeouts, Retry-After
// honoring and a circuit breaker with half-open probes. It is the other
// half of the serving path's robustness story (internal/faults injects the
// failures; this package survives them): a stalled or flaky schedd instance
// costs a caller bounded time, never a hang.
//
// Determinism and observation follow the repository's rules:
//
//   - Backoff jitter flows from an explicit seed through internal/rng,
//     never math/rand, so a retry schedule is replayable given the same
//     sequence of failures.
//   - Wall-clock stays observational only. The breaker's cooldown and the
//     backoff sleeps decide when a request is sent — client-side traffic
//     shaping — but no timing value ever alters the content of a response
//     or feeds a scheduling decision; response bodies remain deterministic
//     in the request alone.
//
// The client is safe for concurrent use; breaker state and the jitter
// stream are shared across goroutines under a mutex.
package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// Defaults for the zero Options value.
const (
	DefaultMaxRetries       = 3
	DefaultBaseBackoff      = 10 * time.Millisecond
	DefaultMaxBackoff       = time.Second
	DefaultTimeout          = 5 * time.Second
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = time.Second
)

// Options configures a Client. The zero value is a working configuration.
type Options struct {
	// MaxRetries bounds retries after the first attempt (so a request makes
	// at most 1+MaxRetries attempts). 0 means DefaultMaxRetries; negative
	// disables retries.
	MaxRetries int
	// BaseBackoff is the first retry's backoff; attempt k waits
	// BaseBackoff<<k, jittered to [d/2, d), capped at MaxBackoff. 0 means
	// DefaultBaseBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps every wait, including honored Retry-After values. 0
	// means DefaultMaxBackoff.
	MaxBackoff time.Duration
	// Timeout is the per-attempt deadline (a slow attempt is abandoned and
	// retried; the caller's ctx still bounds the whole call). 0 means
	// DefaultTimeout.
	Timeout time.Duration
	// Seed drives backoff jitter through internal/rng.
	Seed uint64
	// BreakerThreshold opens the circuit after that many consecutive
	// failures. 0 means DefaultBreakerThreshold; negative disables the
	// breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before admitting a
	// half-open probe. 0 means DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// HTTPClient performs the attempts; nil means a plain &http.Client{}.
	// Per-attempt deadlines come from contexts, not Client.Timeout.
	HTTPClient *http.Client
	// Metrics receives client.* counters and the breaker-state gauge; nil
	// creates a private registry.
	Metrics *obs.Metrics
	// Observer, when non-nil, receives obs.ClientRetry and
	// obs.BreakerTransition events.
	Observer obs.Observer
	// Tracer, when non-nil, opens one trace per Post: a root span plus one
	// attempt span per attempt (annotated with the server's echoed trace ID,
	// the join key to the server-side trace) and one backoff span per retry
	// wait. The client's own trace ID travels to the server in the
	// X-Schedd-Trace request header, identically across every attempt of one
	// Post. A nil Tracer costs nothing.
	Tracer *obs.Tracer
}

// traceHeader mirrors serve.TraceHeader (importing internal/serve here
// would drag the whole engine into every client binary).
const traceHeader = "X-Schedd-Trace"

// jsonContentType is the Content-Type value of every post.
var jsonContentType = []string{"application/json"}

// untracedHeader is the header of every untraced attempt made through an
// http.Client without a cookie jar, shared and never written. Client.send
// writes into a request's own header only to add a jar's cookies; it forks
// the request before adding URL credentials, a redirect gets a header of
// its own, and net/http's RoundTripper contract forbids mutating a request,
// so a transport that adds headers clones the request first. A client with
// a jar gets a fresh header per attempt.
var untracedHeader = http.Header{"Content-Type": jsonContentType}

// ErrBreakerOpen is returned (wrapped) when the circuit breaker refuses a
// request without sending it.
var ErrBreakerOpen = errors.New("client: circuit breaker open")

// StatusError is returned for non-retryable HTTP error responses.
type StatusError struct {
	Status int
	Body   []byte
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: status %d: %s", e.Status, bytes.TrimSpace(e.Body))
}

// Response is a successful (2xx) schedd response.
type Response struct {
	Status int
	// Body is the full response body, byte-identical to what the server
	// produced (a truncated read is a retryable failure, never a partial
	// Response).
	Body []byte
	// Cache echoes the X-Schedd-Cache header ("hit" or "miss").
	Cache string
	// Attempts counts the attempts made, including the successful one.
	Attempts int
}

// breaker states.
const (
	stateClosed = iota
	stateOpen
	stateHalfOpen
)

func stateName(s int) string {
	switch s {
	case stateOpen:
		return "open"
	case stateHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Client is a resilient HTTP client for schedd endpoints. Create with New.
type Client struct {
	opts Options
	hc   *http.Client

	mu       sync.Mutex
	src      *rng.Source
	state    int
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight

	// now and sleep are injectable for deterministic tests; production uses
	// the real clock. Both are wall-clock and observational only: they shape
	// when requests are sent, never what any response contains.
	now   func() time.Time
	sleep func(context.Context, time.Duration) error

	mAttempts *obs.Counter
	mRetries  *obs.Counter
	mFastFail *obs.Counter
	mOpen     *obs.Counter
	mHalfOpen *obs.Counter
	mClosed   *obs.Counter
	gState    *obs.Gauge
}

// New builds a Client.
func New(opts Options) *Client {
	if opts.MaxRetries == 0 {
		opts.MaxRetries = DefaultMaxRetries
	} else if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = DefaultBaseBackoff
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = DefaultMaxBackoff
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.BreakerThreshold == 0 {
		opts.BreakerThreshold = DefaultBreakerThreshold
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = DefaultBreakerCooldown
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewMetrics()
	}
	return &Client{
		opts:      opts,
		hc:        hc,
		src:       rng.New(opts.Seed),
		now:       time.Now,
		sleep:     sleepCtx,
		mAttempts: reg.Counter("client.attempts_total"),
		mRetries:  reg.Counter("client.retries_total"),
		mFastFail: reg.Counter("client.fastfail_total"),
		mOpen:     reg.Counter("client.breaker_open_total"),
		mHalfOpen: reg.Counter("client.breaker_halfopen_total"),
		mClosed:   reg.Counter("client.breaker_closed_total"),
		gState:    reg.Gauge("client.breaker_state"),
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// transition moves the breaker to state next (mu held) and records it.
func (c *Client) transition(next int) {
	if c.state == next {
		return
	}
	from := c.state
	c.state = next
	c.gState.Set(float64(next))
	switch next {
	case stateOpen:
		c.mOpen.Inc()
	case stateHalfOpen:
		c.mHalfOpen.Inc()
	case stateClosed:
		c.mClosed.Inc()
	}
	if c.opts.Observer != nil {
		c.opts.Observer.Observe(obs.BreakerTransition{From: stateName(from), To: stateName(next)})
	}
}

// admit asks the breaker whether a request may be sent now. It returns
// probe=true when the request is the half-open probe.
func (c *Client) admit() (probe bool, err error) {
	if c.opts.BreakerThreshold < 0 {
		return false, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case stateClosed:
		return false, nil
	case stateOpen:
		if c.now().Sub(c.openedAt) < c.opts.BreakerCooldown {
			c.mFastFail.Inc()
			return false, fmt.Errorf("%w (cooling down)", ErrBreakerOpen)
		}
		c.transition(stateHalfOpen)
		c.probing = true
		return true, nil
	default: // half-open
		if c.probing {
			c.mFastFail.Inc()
			return false, fmt.Errorf("%w (probe in flight)", ErrBreakerOpen)
		}
		c.probing = true
		return true, nil
	}
}

// onSuccess records a successful attempt: a half-open probe (or any
// success) closes the breaker and resets the failure run.
func (c *Client) onSuccess(probe bool) {
	if c.opts.BreakerThreshold < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures = 0
	if probe {
		c.probing = false
	}
	c.transition(stateClosed)
}

// onFailure records a failed attempt: a failed probe reopens immediately;
// enough consecutive failures while closed open the breaker.
func (c *Client) onFailure(probe bool) {
	if c.opts.BreakerThreshold < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if probe {
		c.probing = false
		c.openedAt = c.now()
		c.transition(stateOpen)
		return
	}
	if c.state != stateClosed {
		return
	}
	c.failures++
	if c.failures >= c.opts.BreakerThreshold {
		c.failures = 0
		c.openedAt = c.now()
		c.transition(stateOpen)
	}
}

// backoff computes the jittered wait before retry attempt (1-based),
// honoring retryAfter (from a Retry-After header) up to MaxBackoff.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := c.opts.BaseBackoff << (attempt - 1)
	if d <= 0 || d > c.opts.MaxBackoff {
		d = c.opts.MaxBackoff
	}
	c.mu.Lock()
	jitter := c.src.Float64()
	c.mu.Unlock()
	d = d/2 + time.Duration(jitter*float64(d/2))
	if retryAfter > d {
		d = retryAfter
	}
	if d > c.opts.MaxBackoff {
		d = c.opts.MaxBackoff
	}
	return d
}

// retryAfter parses a Retry-After header as delay seconds (the form schedd
// and the fault injector emit); 0 when absent or unparseable.
func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// BreakerState reports the circuit breaker's current state: "closed",
// "open" or "half-open". Read-only — it never advances the breaker (an
// expired cooldown still reads "open" until a request arrives to probe).
// Callers like the gateway's /statusz use it to expose per-backend breaker
// state without reaching into internals.
func (c *Client) BreakerState() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return stateName(c.state)
}

// Retryable reports whether an HTTP status is worth retrying: overload
// signals and transient server errors, not deterministic request errors.
// Exported so callers layering their own failover (the cluster gateway)
// classify statuses identically to the client's retry loop.
func Retryable(status int) bool { return retryable(status) }

// retryable reports whether an HTTP status is worth retrying: overload
// signals and transient server errors, not deterministic request errors.
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests,
		http.StatusInternalServerError,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Post sends body to url, retrying transient failures (transport errors,
// truncated reads, 429 and 5xx) with seeded-jitter exponential backoff
// under the circuit breaker. It returns the first successful Response, a
// *StatusError for a non-retryable status, or the last failure once
// retries are exhausted. The response body is read into one buffer of
// exactly its declared length.
func (c *Client) Post(ctx context.Context, url string, body []byte) (*Response, error) {
	resp, err := c.PostInto(ctx, url, body, nil, nil)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// PostInto is Post over storage the caller owns. A non-nil loan tracks
// the transport's readers over body (see Loan), so the caller can tell
// when body may be reused. The response body — a Response's or a
// StatusError's — is read into dst's storage when it fits (a larger or
// unframed one grows past it), so it is valid until the caller reuses
// dst. A nil dst reads a declared length into one exact-size buffer, as
// Post does.
func (c *Client) PostInto(ctx context.Context, url string, body []byte, loan *Loan, dst []byte) (Response, error) {
	tr := c.opts.Tracer.StartTrace("post")
	var traceID string
	if tr != nil {
		// Identity is the full request (URL + body), so the client's trace
		// ID is deterministic in what it sends, like the server's.
		tr.SetKey(url + "\x00" + string(body))
		tr.SetEndpoint(url)
		traceID = tr.ID()
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		probe, err := c.admit()
		if err != nil {
			tr.Finish(0, "")
			if lastErr != nil {
				return Response{}, fmt.Errorf("%w (last failure: %v)", err, lastErr)
			}
			return Response{}, err
		}
		c.mAttempts.Inc()
		asp := tr.Start("attempt")
		asp.SetAttempt(attempt)
		resp, status, ra, echo, err := c.attempt(ctx, url, body, loan, dst, traceID)
		asp.SetStatus(status)
		if echo != "" {
			asp.SetRemote(echo)
		}
		if err != nil && status == 0 {
			asp.SetErr("transport")
		}
		asp.End()
		if err == nil {
			c.onSuccess(probe)
			resp.Attempts = attempt
			tr.Finish(resp.Status, resp.Cache)
			return resp, nil
		}
		lastErr = err
		var se *StatusError
		if errors.As(err, &se) && !retryable(se.Status) {
			// Deterministic request error (400/404/413/...): the server
			// answered; this is not a fault, so the breaker stays put.
			c.onSuccess(probe)
			tr.Finish(se.Status, "")
			return Response{}, err
		}
		c.onFailure(probe)
		if attempt > c.opts.MaxRetries || ctx.Err() != nil {
			tr.Finish(status, "")
			return Response{}, fmt.Errorf("client: %d attempt(s) failed: %w", attempt, lastErr)
		}
		delay := c.backoff(attempt, ra)
		c.mRetries.Inc()
		if c.opts.Observer != nil {
			c.opts.Observer.Observe(obs.ClientRetry{
				URL:     url,
				Attempt: attempt,
				Status:  status,
				Err:     errText(err, status),
				DelayNS: int64(delay),
			})
		}
		bsp := tr.Start("backoff")
		bsp.SetAttempt(attempt)
		err = c.sleep(ctx, delay)
		bsp.End()
		if err != nil {
			tr.Finish(0, "")
			return Response{}, fmt.Errorf("client: interrupted after %d attempt(s): %w (last failure: %v)", attempt, err, lastErr)
		}
	}
}

// errText is the ClientRetry event's error field: transport errors only
// (statuses are already carried structurally).
func errText(err error, status int) string {
	if status != 0 {
		return ""
	}
	return err.Error()
}

// attempt performs one POST of body under the per-attempt timeout, its
// readers tracked by loan when non-nil, and reads the response into dst.
// status is the HTTP status when one was received (even on failure);
// ra is the parsed Retry-After; echo is the server's X-Schedd-Trace
// response header (the server-side trace this attempt caused), when one
// arrived. traceID, when non-empty, propagates the client's trace to the
// server.
func (c *Client) attempt(ctx context.Context, url string, body []byte, loan *Loan, dst []byte, traceID string) (resp Response, status int, ra time.Duration, echo string, err error) {
	actx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer cancel()
	rctx := actx
	if loan != nil && len(body) > 0 {
		rctx = loan.traced(actx)
	}
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, url, nil)
	if err != nil {
		return Response{}, 0, 0, "", err
	}
	attach(req, body, loan)
	switch {
	case traceID != "":
		req.Header = http.Header{"Content-Type": jsonContentType, traceHeader: {traceID}}
	case c.hc.Jar != nil:
		req.Header = http.Header{"Content-Type": jsonContentType}
	default:
		req.Header = untracedHeader
	}
	hr, err := c.hc.Do(req)
	if loan != nil && (err != nil || hr.Request != nil && hr.Request.Method != http.MethodPost) {
		// A followed redirect may have written a bodyless request, whose
		// finished write would count against a reader still being written.
		loan.spoiled.Store(true)
	}
	if err != nil {
		return Response{}, 0, 0, "", err
	}
	defer hr.Body.Close()
	echo = hr.Header.Get(traceHeader)
	b, err := readBody(hr.Body, hr.ContentLength, dst)
	if err != nil {
		// Truncated or severed mid-body: a partial body must never be
		// surfaced as a Response.
		return Response{}, 0, 0, echo, fmt.Errorf("client: reading body: %w", err)
	}
	if hr.StatusCode < 200 || hr.StatusCode > 299 {
		return Response{}, hr.StatusCode, retryAfter(hr), echo, &StatusError{Status: hr.StatusCode, Body: b}
	}
	return Response{Status: hr.StatusCode, Body: b, Cache: hr.Header.Get("X-Schedd-Cache")}, hr.StatusCode, 0, echo, nil
}

// exactBodyCap bounds readBody's up-front allocation: a declared
// Content-Length above it is not trusted with one buffer of that size.
const exactBodyCap = 4 << 20

// readBody reads a response body whose Content-Length is n (-1 when
// unknown) into dst's storage. A known length up to exactBodyCap is read
// into dst when it fits, else into one new buffer of exactly that size;
// otherwise the body is appended to dst[:0], growing it as the bytes
// arrive. A body shorter than its declared length is an error, never a
// short slice.
func readBody(r io.Reader, n int64, dst []byte) ([]byte, error) {
	if n < 0 || n > exactBodyCap {
		b := bytes.NewBuffer(dst[:0])
		if _, err := b.ReadFrom(r); err != nil {
			return nil, err
		}
		return b.Bytes(), nil
	}
	if int64(cap(dst)) < n {
		dst = make([]byte, n)
	}
	b := dst[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// attach sets req's body to a reader over body, and GetBody to hand out
// another one for each rewind, counting each in loan when non-nil. The
// readers are the in-memory kind net/http writes in one piece with the
// request head; an empty body lends nothing.
func attach(req *http.Request, body []byte, loan *Loan) {
	if len(body) == 0 {
		req.Body = http.NoBody
		return
	}
	open := func() (io.ReadCloser, error) {
		if loan != nil {
			loan.lent.Add(1)
		}
		return io.NopCloser(bytes.NewReader(body)), nil
	}
	req.ContentLength = int64(len(body))
	req.Body, _ = open()
	req.GetBody = open
}

// A Loan keeps the release rule for a request body the caller lends the
// transport and wants back. The client counts every reader it hands the
// transport over the body — each attempt's first one and each GetBody
// rewind, across every post made under the loan — and every write of the
// request the transport reports finished (httptrace's WroteRequest, which
// net/http calls once the request and its body are written and the body
// closed; a reader is written at most once, since a rewind replaces it).
// An http.RoundTripper may go on reading a body after RoundTrip has
// returned: a write can still be racing the response. So the body may be
// reused only once Returned is true; a loan that is not returned is left
// to the garbage collector with its body, never waited for. A post that
// failed, or that followed a redirect to a bodyless request, keeps its
// loan out for good.
//
// Finished writes are the signal, not Close: a request body of a type
// net/http cannot tell is in memory has its head flushed in a separate
// write and is copied through a fresh body-sized buffer, which costs more
// than the copy the loan saves.
type Loan struct {
	lent, wrote atomic.Int32
	spoiled     atomic.Bool
	// trace counts finished writes; built once per Loan, so that a pooled
	// Loan traces its attempts without allocating hooks.
	trace *httptrace.ClientTrace
}

// Returned reports whether the transport has finished writing every
// reader it was handed under the loan. Call it once no post under the
// loan is in progress: no reader is handed out after that.
func (l *Loan) Returned() bool { return !l.spoiled.Load() && l.wrote.Load() == l.lent.Load() }

// Reset starts the loan afresh. Only a returned (or new) Loan may be
// reset: a write still in progress would count against the next body.
func (l *Loan) Reset() {
	l.lent.Store(0)
	l.wrote.Store(0)
	l.spoiled.Store(false)
}

// traced returns ctx carrying the loan's write counter.
func (l *Loan) traced(ctx context.Context) context.Context {
	if l.trace == nil {
		l.trace = &httptrace.ClientTrace{WroteRequest: func(httptrace.WroteRequestInfo) { l.wrote.Add(1) }}
	}
	if httptrace.ContextClientTrace(ctx) != nil {
		// WithClientTrace composes into the trace it is given; keep the
		// shared one unchanged.
		t := *l.trace
		return httptrace.WithClientTrace(ctx, &t)
	}
	return httptrace.WithClientTrace(ctx, l.trace)
}
