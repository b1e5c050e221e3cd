package chaos

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// lifetime is one server lifetime over a store: a fresh serve.Server with
// its own metrics registry. Ending it drains the write-behind queue into
// the store, so accounting across lifetimes is exact.
type lifetime struct {
	srv *serve.Server
	reg *obs.Metrics
}

func newLifetime(st *store.Store, cacheEntries int) lifetime {
	reg := obs.NewMetrics()
	return lifetime{serve.NewServer(serve.Options{Workers: 2, CacheEntries: cacheEntries, Store: st, Metrics: reg}), reg}
}

func (l lifetime) end(what string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.srv.Drain(ctx); err != nil {
		return fmt.Errorf("chaos: %s drain: %w", what, err)
	}
	return nil
}

// tempStoreDir makes a fresh store directory, removed when the run ends and
// named nowhere in the report: same scenario, same report bytes.
func (r *run) tempStoreDir() (string, error) {
	dir, err := os.MkdirTemp("", "schedchaos-"+r.sc.Topology()+"-*")
	if err != nil {
		return "", fmt.Errorf("chaos: store dir: %w", err)
	}
	r.atExit = append(r.atExit, func() { os.RemoveAll(dir) })
	return dir, nil
}

// restart is a crash/restart of a serve stack with a disk result tier: a
// warm lifetime computes and persists the workload, the process "dies"
// (drain, close, TornTailBytes of garbage appended to the newest segment —
// a write cut mid-record), and a second lifetime reopens the same
// directory. A restart must not be a miss storm: every previously computed
// body is served from disk with the exact golden bytes, then promoted to a
// memory hit.
type restart struct {
	r   *run
	dir string
}

func (d *restart) up() (err error) {
	d.dir, err = d.r.tempStoreDir()
	return err
}

// replay opens the store, posts every distinct body twice through a fresh
// server — the first pass expecting cache header first, the repeat
// expecting repeat — and closes the store again. It returns the lifetime,
// the store's stats at open, and per pass how many requests came back
// byte-identical with the expected header.
func (d *restart) replay(name, first, repeat string) (lt lifetime, opened store.Stats, got [2]int, err error) {
	r := d.r
	st, err := store.Open(d.dir, store.Options{})
	if err != nil {
		return lt, opened, got, fmt.Errorf("chaos: open store: %w", err)
	}
	opened = st.Stats()
	lt = newLifetime(st, 0)
	ph := newPhase(name, 2*r.sc.Distinct)
	for pass, want := range []string{first, repeat} {
		for k := range r.sc.Distinct {
			if cache, ok := r.expect(lt.srv, &ph, fmt.Sprintf("%s pass %d request %d", name, pass, k), k, want); ok && cache == want {
				got[pass]++
			}
		}
	}
	r.rep.Phases = append(r.rep.Phases, ph)
	if err := lt.end(name); err != nil {
		return lt, opened, got, err
	}
	if err := st.Close(); err != nil {
		return lt, opened, got, fmt.Errorf("chaos: %s store close: %w", name, err)
	}
	return lt, opened, got, nil
}

func (d *restart) drive() error {
	r, sc := d.r, d.r.sc
	if _, _, _, err := d.replay("warm", "miss", "hit"); err != nil {
		return err
	}
	// The crash: a torn tail on the newest segment, as if the process died
	// mid-append. Recovery must truncate it — never serve it.
	if err := store.InjectTornTail(d.dir, sc.TornTailBytes); err != nil {
		return fmt.Errorf("chaos: torn tail: %w", err)
	}
	lt, reopened, got, err := d.replay("restart", "disk", "hit")
	if err != nil {
		return err
	}
	diskServed, promoted := got[0], got[1]
	r.rep.Recovered = diskServed

	counters := countersOf(lt.reg)
	r.check("disk_recovery", diskServed == sc.Distinct && counters["serve.disk_hits"] == int64(sc.Distinct),
		fmt.Sprintf("%d of %d post-restart requests served from disk (serve.disk_hits=%d)",
			diskServed, sc.Distinct, counters["serve.disk_hits"]))
	r.check("promotion", promoted == sc.Distinct,
		fmt.Sprintf("%d of %d disk hits promoted to memory hits", promoted, sc.Distinct))
	r.check("torn_tail_truncated",
		reopened.RecoveredBytes == int64(sc.TornTailBytes) && reopened.Keys == sc.Distinct,
		fmt.Sprintf("recovery truncated %d bytes (injected %d), %d of %d keys survived",
			reopened.RecoveredBytes, sc.TornTailBytes, reopened.Keys, sc.Distinct))
	r.recovered("post-restart")
	r.quiesced(lt.reg)
	return nil
}
