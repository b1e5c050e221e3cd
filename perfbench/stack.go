package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// clients is the closed-loop client count: a caller of this service is a
// resource manager that waits for the mapping it asked for, and the
// reference host has two CPUs.
const clients = 2

// stack is one workload's system under test, booted in this process on
// loopback: a serve.Server behind net/http (engine-miss, disk-churn, the
// latter with a store.Store disk tier), or a cluster.Gateway in front of
// cluster.StartLocal backends (gateway-hot).
type stack struct {
	url     string
	hs      *http.Server
	srv     *serve.Server
	local   *cluster.Local
	gw      *cluster.Gateway
	st      *store.Store
	clients []*client.Client
	trs     []*http.Transport
	openS   float64 // store.Open on the populated directory (disk-churn)
}

func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}
}

// boot starts the workload's stack. dir is the populated store directory
// (disk-churn only). With a recorder, every public seam the benchmark
// controls records spans: the mounted handlers, the backends' handlers via
// Local.SetHandler, the clients' transports, the store passed as
// serve.Options.Store, and the server's own Tracer.
func boot(name, dir string, rec *recorder) (*stack, error) {
	s := &stack{}
	var opts serve.Options
	if rec != nil {
		opts.Tracer = obs.NewTracer(rec)
	}
	var h http.Handler
	switch name {
	case gatewayHot:
		local, err := cluster.StartLocal(2, opts)
		if err != nil {
			return nil, err
		}
		s.local = local
		btr := newTransport()
		s.trs = append(s.trs, btr)
		var rt http.RoundTripper = btr
		if rec != nil {
			rt = &spanTransport{base: btr, rec: rec, name: "backend_http"}
			for i := range local.Backends() {
				local.SetHandler(i, rec.handler("handler", local.Server(i).Handler()))
			}
		}
		gw, err := cluster.NewGateway(cluster.Options{
			Backends: local.Backends(),
			Client:   client.Options{HTTPClient: &http.Client{Transport: rt}, Seed: 1},
		})
		if err != nil {
			local.Close()
			return nil, err
		}
		s.gw = gw
		h = gw.Handler()
		if rec != nil {
			h = rec.handler("gateway", h)
		}
	default:
		if name == diskChurn {
			t0 := time.Now()
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				return nil, err
			}
			s.openS = time.Since(t0).Seconds()
			s.st = st
			opts.Store = st
			if rec != nil {
				opts.Store = &timedStore{st: st, rec: rec}
			}
		}
		s.srv = serve.NewServer(opts)
		h = s.srv.Handler()
		if rec != nil {
			h = rec.handler("handler", h)
		}
	}
	var err error
	if s.hs, s.url, err = listen(h); err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < clients; i++ {
		tr := newTransport()
		s.trs = append(s.trs, tr)
		var rt http.RoundTripper = tr
		if rec != nil {
			rt = &spanTransport{base: tr, rec: rec, name: "http"}
		}
		s.clients = append(s.clients, client.New(client.Options{
			HTTPClient: &http.Client{Transport: rt},
			Seed:       uint64(i + 1),
		}))
	}
	return s, nil
}

// servers returns every serve.Server of the stack.
func (s *stack) servers() []*serve.Server {
	if s.local != nil {
		out := make([]*serve.Server, len(s.local.Backends()))
		for i := range out {
			out[i] = s.local.Server(i)
		}
		return out
	}
	return []*serve.Server{s.srv}
}

// counter sums a named counter over every server of the stack.
func (s *stack) counter(name string) int64 {
	var n int64
	for _, srv := range s.servers() {
		n += srv.Metrics().Counter(name).Value()
	}
	return n
}

// close stops the stack: listener, then drain (which flushes the
// write-behind queue), then the store.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if s.hs != nil {
		errs = append(errs, s.hs.Shutdown(ctx))
	}
	if s.gw != nil {
		errs = append(errs, s.gw.Drain(ctx))
	}
	if s.local != nil {
		errs = append(errs, s.local.Close())
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Drain(ctx))
	}
	if s.st != nil {
		errs = append(errs, s.st.Close())
	}
	for _, tr := range s.trs {
		tr.CloseIdleConnections()
	}
	return errors.Join(errs...)
}

// refServer computes reference bodies in-process on a fresh server with no
// disk tier, outside any timed phase.
type refServer struct{ srv *serve.Server }

func newRefServer() *refServer {
	return &refServer{srv: serve.NewServer(serve.Options{CacheEntries: -1})}
}

func (r *refServer) body(it item) ([]byte, error) {
	rw := httptest.NewRecorder()
	r.srv.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodPost, it.path, bytes.NewReader(it.body)))
	if rw.Code != http.StatusOK {
		return nil, fmt.Errorf("reference %s: status %d: %s", it.path, rw.Code, bytes.TrimSpace(rw.Body.Bytes()))
	}
	return rw.Body.Bytes(), nil
}

// bodies computes references for items on every CPU the process has.
func (r *refServer) bodies(items []item) ([][]byte, error) {
	out := make([][]byte, len(items))
	errs := make([]error, len(items))
	parallel(len(items), func(i int) {
		out[i], errs[i] = r.body(items[i])
	})
	return out, errors.Join(errs...)
}

func (r *refServer) close() { drainServer(r.srv) }

// parallel runs f(0..n-1) on clients goroutines and waits for them.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// populate writes every pool item's reference body into a fresh store under
// its canonical key and closes it, leaving the directory a restarted
// server reopens.
func populate(dir string, keys []string, refs [][]byte) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	for i, k := range keys {
		if err := st.Put(k, refs[i]); err != nil {
			st.Close()
			return fmt.Errorf("populate: %w", err)
		}
	}
	return st.Close()
}

// canonicalKeys computes each pool item's canonical key as the server
// would.
func canonicalKeys(items []item) ([]string, error) {
	keys := make([]string, len(items))
	for i, it := range items {
		k, ok := serve.CanonicalKey(it.path, it.body)
		if !ok {
			return nil, fmt.Errorf("item %d has no canonical key", i)
		}
		keys[i] = k
	}
	return keys, nil
}

// runDir is the per-process scratch directory inside the checkout.
func runDir() string {
	return filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
}
