// Package daemon is the scaffold the HTTP daemons cmd/schedd and
// cmd/schedgw share: the exit-code rule, the log-file policy, the stop
// order and the selfcheck harness, each decided here once. The daemons
// keep only their flags, their fronts and what their selfchecks check.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
)

// usageError marks a command-line mistake: bad flag syntax or a
// nonsensical value. A flag parse error becomes one through
// Usagef("%w", err).
type usageError struct{ error }

// Usagef returns a usage error, which ExitCode maps to 2.
func Usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// ExitCode is a daemon's exit status for err: 0 for nil, 2 for a usage
// error, 1 for anything else, so wrappers and scripts can tell operator
// mistakes from daemon failures.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.As(err, &usageError{}):
		return 2
	default:
		return 1
	}
}

// Main runs a daemon's run function on the process's arguments and exits
// with ExitCode of its error, printed to stderr under the daemon's name.
func Main(name string, run func(args []string, stdout, stderr io.Writer) error) {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(ExitCode(err))
	}
}

// Logs are a daemon's two JSONL files. -access-log appends: its records
// are flat and stand alone, so lifetimes may share a file. -trace-out
// truncates: a trace ID is the request key's hash plus a per-process
// sequence that restarts at 1, so a second lifetime appended to the first
// would repeat its IDs. One trace file holds one lifetime's stream.
type Logs struct {
	access, trace *obs.JSONL
	files         []*os.File
}

// OpenLogs opens the -access-log and -trace-out files; an empty path opens
// nothing. The caller owns Close.
func OpenLogs(accessPath, tracePath string) (*Logs, error) {
	l := &Logs{}
	var err error
	if l.access, err = l.open(accessPath, os.O_APPEND); err == nil {
		l.trace, err = l.open(tracePath, os.O_TRUNC)
	}
	if err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

func (l *Logs) open(path string, mode int) (*obs.JSONL, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|mode, 0o644)
	if err != nil {
		return nil, err
	}
	l.files = append(l.files, f)
	return obs.NewJSONL(f), nil
}

// Access is the -access-log observer, or nil, which the fronts read as
// off.
func (l *Logs) Access() obs.Observer {
	if l.access == nil {
		return nil
	}
	return l.access
}

// Tracer is the daemon's tracer. Tracing is always on: span durations
// feed reg's stage metrics under prefix, the -trace-out file streams
// every span, and col, when not nil, keeps them for a selfcheck's trace
// leg. Span IDs derive from request keys and a sequence, so none of this
// touches response bytes.
func (l *Logs) Tracer(reg *obs.Metrics, prefix string, col *obs.Collector) *obs.Tracer {
	sinks := obs.Multi{obs.NewSpanMetricsObserver(reg, prefix)}
	if l.trace != nil {
		sinks = append(sinks, l.trace)
	}
	if col != nil {
		sinks = append(sinks, col)
	}
	return obs.NewTracer(sinks)
}

// Close reports the first write error a sink latched, naming its flag,
// then closes the files. Only the first call does anything, so a deferred
// Close can back up the one that ends a run.
func (l *Logs) Close() error {
	err := wrote("-access-log", l.access)
	if err == nil {
		err = wrote("-trace-out", l.trace)
	}
	for _, f := range l.files {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	*l = Logs{}
	return err
}

// wrote returns the write error sink latched, naming its flag.
func wrote(flag string, sink *obs.JSONL) error {
	if sink == nil {
		return nil
	}
	if err := sink.Err(); err != nil {
		return fmt.Errorf("writing %s: %w", flag, err)
	}
	return nil
}

// Drainer is a front as the daemons stop it: its Drain, and String for
// the listening line. serve.Server and cluster.Gateway are Drainers.
type Drainer interface {
	Drain(ctx context.Context) error
	String() string
}

// Serve listens on addr and serves h until SIGINT or SIGTERM, then stops
// within drainTimeout (see stop). Progress lines go to log, prefixed by
// name. The signal handler is installed before the listener opens, so a
// request answered on addr proves a later SIGTERM drains, never kills.
func Serve(name, addr string, h http.Handler, d Drainer, drainTimeout time.Duration, log io.Writer) error {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "%s: listening on http://%s (%s)\n", name, ln.Addr(), d)
	hs := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(log, "%s: signal received, draining\n", name)
	if err := stop(hs, d, drainTimeout); err != nil {
		return err
	}
	fmt.Fprintf(log, "%s: drained\n", name)
	return nil
}

// stop is the one stop order: http.Server.Shutdown stops accepting and
// waits out the open exchanges, then d.Drain waits for d's in-flight
// requests and releases what d owns, both within timeout.
func stop(hs *http.Server, d Drainer, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := d.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}
