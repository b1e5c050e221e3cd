package cluster

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// Local is an in-process multi-backend substrate: n full serve stacks, each
// on its own loopback listener, with deterministic names ("backend-0"...)
// and kill/revive controls. Tests, benchmarks, the chaos harness and
// schedgw -local all build clusters on it. The serve.Server instances
// stay alive across Kill/Revive — a revived backend rejoins with its cache
// warm, exactly like a real schedd process surviving a network partition.
type Local struct {
	backends []*localBackend
}

// localBackend is one member: the serve stack, its swap-able handler, the
// HTTP server currently accepting (nil while killed), and the recorded
// address revives rebind to.
type localBackend struct {
	name  string
	srv   *serve.Server
	reg   *obs.Metrics
	store *store.Store // nil without a disk tier; closed by Close after drain

	// handler indirection: SetHandler swaps what the listener serves (fault
	// injectors wrap here) without restarting anything.
	handler atomic.Pointer[http.Handler]

	mu    sync.Mutex
	hs    *http.Server // nil while killed
	addr  string       // fixed at StartLocal; revives rebind to it
	alive bool
}

// StartLocal boots n backends, each a fresh serve.Server built from opts.
// Per-backend fields are forced: Metrics gets a private registry per
// backend (shared registries would collapse every backend's counters), and
// the caller's Observer/Tracer are shared as given. Callers own Close.
func StartLocal(n int, opts serve.Options) (*Local, error) {
	return StartLocalStores(n, opts, "")
}

// StartLocalStores boots n backends like StartLocal, each additionally
// carrying its own crash-safe disk result tier rooted at dir/<backend-name>
// (empty dir means no disk tier — plain StartLocal). Per-backend
// directories keep the tiers as disjoint as the caches: rendezvous routing
// sends a key to one backend, so that backend's store is where the key's
// body becomes durable. Close drains each backend and then closes its
// store, so the write-behind queue is always flushed first.
func StartLocalStores(n int, opts serve.Options, dir string) (*Local, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least one backend, got %d", n)
	}
	l := &Local{}
	for i := 0; i < n; i++ {
		o := opts
		o.Metrics = obs.NewMetrics()
		name := fmt.Sprintf("backend-%d", i)
		var st *store.Store
		if dir != "" {
			var err error
			st, err = store.Open(filepath.Join(dir, name), store.Options{})
			if err != nil {
				l.Close()
				return nil, fmt.Errorf("cluster: %s: %w", name, err)
			}
			o.Store = st
		}
		b := &localBackend{
			name:  name,
			srv:   serve.NewServer(o),
			reg:   o.Metrics,
			store: st,
		}
		h := b.srv.Handler()
		b.handler.Store(&h)
		if err := b.bind(""); err != nil {
			b.closeStore()
			l.Close()
			return nil, err
		}
		l.backends = append(l.backends, b)
	}
	return l, nil
}

// closeStore closes the backend's disk tier, if any. Only call after the
// serve stack has drained (the server write-behind flushes into the store).
func (b *localBackend) closeStore() error {
	if b.store == nil {
		return nil
	}
	return b.store.Close()
}

// bind listens (on addr when rebinding, an ephemeral port otherwise) and
// starts a fresh http.Server. http.Server.Close poisons the server, so
// every revive builds a new one; SO_REUSEADDR makes the same-port rebind
// reliable immediately after a kill.
func (b *localBackend) bind(addr string) error {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: %s: listen %s: %w", b.name, addr, err)
	}
	hs := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*b.handler.Load()).ServeHTTP(w, r)
		}),
		// Connections severed by kills and fault injectors are expected.
		ErrorLog: log.New(io.Discard, "", 0),
	}
	b.mu.Lock()
	b.hs = hs
	b.addr = ln.Addr().String()
	b.alive = true
	b.mu.Unlock()
	go hs.Serve(ln)
	return nil
}

// Backends returns the membership as gateway configuration, in index order.
func (l *Local) Backends() []Backend {
	out := make([]Backend, len(l.backends))
	for i, b := range l.backends {
		out[i] = Backend{Name: b.name, URL: "http://" + b.Addr()}
	}
	return out
}

// Addr returns backend i's bound address (stable across Kill/Revive).
func (l *Local) Addr(i int) string { return l.backends[i].Addr() }

func (b *localBackend) Addr() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.addr
}

// Server returns backend i's serve.Server (for cache-priming and drain in
// tests).
func (l *Local) Server(i int) *serve.Server { return l.backends[i].srv }

// Metrics returns backend i's private metrics registry.
func (l *Local) Metrics(i int) *obs.Metrics { return l.backends[i].reg }

// SetHandler swaps what backend i's listener serves — chaos phases wrap the
// serve handler in a fault injector here. A nil h restores the plain serve
// handler.
func (l *Local) SetHandler(i int, h http.Handler) {
	b := l.backends[i]
	if h == nil {
		h = b.srv.Handler()
	}
	b.handler.Store(&h)
}

// Alive reports whether backend i is currently accepting connections.
func (l *Local) Alive(i int) bool {
	b := l.backends[i]
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.alive
}

// Kill severs backend i abruptly: the listener closes and every open
// connection is torn down, exactly what a crashed process looks like to the
// gateway. The serve.Server underneath keeps its warm cache for Revive.
// Killing a dead backend is a no-op.
func (l *Local) Kill(i int) {
	b := l.backends[i]
	b.mu.Lock()
	hs := b.hs
	b.hs = nil
	b.alive = false
	b.mu.Unlock()
	if hs != nil {
		hs.Close()
	}
}

// Revive rebinds backend i on its original address. Reviving a live
// backend is a no-op.
func (l *Local) Revive(i int) error {
	b := l.backends[i]
	b.mu.Lock()
	alive, addr := b.alive, b.addr
	b.mu.Unlock()
	if alive {
		return nil
	}
	return b.bind(addr)
}

// Close shuts every backend down: graceful listener shutdown, then a serve
// drain, so worker pools quiesce and goroutine-leak checks stay clean.
func (l *Local) Close() error {
	var first error
	for _, b := range l.backends {
		b.mu.Lock()
		hs := b.hs
		b.hs = nil
		b.alive = false
		b.mu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if hs != nil {
			if err := hs.Shutdown(ctx); err != nil && first == nil {
				first = err
			}
		}
		if err := b.srv.Drain(ctx); err != nil && first == nil {
			first = err
		}
		cancel()
		if err := b.closeStore(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
