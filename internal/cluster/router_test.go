package cluster

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/rng"
)

// keyCorpus builds n deterministic keys shaped like real canonical request
// keys: binary-ish strings seeded through internal/rng.
func keyCorpus(seed uint64, n int) []string {
	src := rng.New(seed)
	keys := make([]string, n)
	var b [16]byte
	for i := range keys {
		u, v := src.Uint64(), src.Uint64()
		for j := 0; j < 8; j++ {
			b[j] = byte(u >> (8 * j))
			b[8+j] = byte(v >> (8 * j))
		}
		keys[i] = fmt.Sprintf("/v1/map\x00%s\x00%d", b[:], i)
	}
	return keys
}

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("backend-%d", i)
	}
	return out
}

func TestNewRouterRejectsBadMembership(t *testing.T) {
	for _, tc := range []struct {
		name    string
		members []string
	}{
		{"empty", nil},
		{"blank name", []string{"a", ""}},
		{"duplicate", []string{"a", "b", "a"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewRouter(tc.members); err == nil {
				t.Fatalf("NewRouter(%q) succeeded, want error", tc.members)
			}
		})
	}
}

func TestRouterDeterminism(t *testing.T) {
	keys := keyCorpus(101, 512)
	for _, n := range []int{1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("members-%d", n), func(t *testing.T) {
			a, err := NewRouter(members(n))
			if err != nil {
				t.Fatal(err)
			}
			// Same membership presented in reverse order must be the same
			// router: membership is a set.
			rev := make([]string, n)
			for i, m := range members(n) {
				rev[n-1-i] = m
			}
			b, err := NewRouter(rev)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				if got, want := a.Pick(k), b.Pick(k); got != want {
					t.Fatalf("Pick(%q) differs across member order: %q vs %q", k, got, want)
				}
				if got, want := a.PickHash(KeyHash(k)), a.Pick(k); got != want {
					t.Fatalf("PickHash disagrees with Pick for %q: %q vs %q", k, got, want)
				}
				rank := a.Rank(k)
				if len(rank) != n {
					t.Fatalf("Rank(%q) has %d members, want %d", k, len(rank), n)
				}
				if rank[0] != a.Pick(k) {
					t.Fatalf("Rank(%q)[0] = %q, Pick = %q", k, rank[0], a.Pick(k))
				}
				seen := make(map[string]bool, n)
				for _, m := range rank {
					if seen[m] {
						t.Fatalf("Rank(%q) repeats member %q", k, m)
					}
					seen[m] = true
				}
			}
		})
	}
}

func TestRouterBalance(t *testing.T) {
	// No backend may own more than twice its fair share of a seeded corpus.
	keys := keyCorpus(202, 4096)
	for _, n := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("members-%d", n), func(t *testing.T) {
			r, err := NewRouter(members(n))
			if err != nil {
				t.Fatal(err)
			}
			counts := make(map[string]int, n)
			for _, k := range keys {
				counts[r.Pick(k)]++
			}
			fair := float64(len(keys)) / float64(n)
			for _, m := range r.Members() {
				if c := counts[m]; float64(c) > 2*fair {
					t.Fatalf("member %q owns %d of %d keys (> 2x fair share %.0f)", m, c, len(keys), fair)
				}
				if counts[m] == 0 {
					t.Fatalf("member %q owns no keys", m)
				}
			}
		})
	}
}

func TestRouterMinimalDisruption(t *testing.T) {
	// Removing one member of N must remap only the keys that member owned;
	// every other key keeps its owner. Equivalently, the survivor ranking is
	// the full ranking with the removed member deleted.
	keys := keyCorpus(303, 2048)
	for _, n := range []int{2, 3, 4, 8} {
		for remove := 0; remove < n; remove++ {
			t.Run(fmt.Sprintf("members-%d-remove-%d", n, remove), func(t *testing.T) {
				full, err := NewRouter(members(n))
				if err != nil {
					t.Fatal(err)
				}
				removed := full.Members()[remove]
				var rest []string
				for _, m := range full.Members() {
					if m != removed {
						rest = append(rest, m)
					}
				}
				sub, err := NewRouter(rest)
				if err != nil {
					t.Fatal(err)
				}
				moved := 0
				for _, k := range keys {
					before := full.Pick(k)
					after := sub.Pick(k)
					if before != removed {
						if after != before {
							t.Fatalf("key %q moved %q -> %q though %q was removed", k, before, after, removed)
						}
						continue
					}
					moved++
					// The orphaned key must land on its first failover in the
					// full ranking — the gateway's failover order and the
					// shrunk membership's owner are the same member.
					if want := full.Rank(k)[1]; after != want {
						t.Fatalf("orphaned key %q landed on %q, want first failover %q", k, after, want)
					}
				}
				if n > 1 && moved == 0 {
					t.Fatalf("removed member %q owned no keys in a %d-key corpus", removed, len(keys))
				}
			})
		}
	}
}

// stableRank is the reference ranking: every member by descending score,
// score ties in sorted-name order, by sort.SliceStable.
func stableRank(r *Router, kh uint64) []string {
	idx := make([]int, len(r.names))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return mix64(r.hashes[idx[a]]^kh) > mix64(r.hashes[idx[b]]^kh)
	})
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = r.names[j]
	}
	return out
}

// TestRankHashMatchesStableSort pins RankHash's insertion sort to the
// stable-sort order for 1–8 members and random key hashes. Distinct names
// never tie on score (the mixer is a bijection), so the tie cases plant
// repeated member hashes directly: tied members must keep sorted-name
// order, as Pick's strict > does.
func TestRankHashMatchesStableSort(t *testing.T) {
	src := rng.New(7)
	for n := 1; n <= 8; n++ {
		r, err := NewRouter(members(n))
		if err != nil {
			t.Fatal(err)
		}
		tied := &Router{names: r.names, hashes: make([]uint64, n)}
		for i := range tied.hashes {
			tied.hashes[i] = r.hashes[src.Intn(min(n, 3))]
		}
		for _, rt := range []*Router{r, tied} {
			for k := 0; k < 500; k++ {
				kh := src.Uint64()
				got, want := rt.RankHash(kh), stableRank(rt, kh)
				if !slices.Equal(got, want) {
					t.Fatalf("%d members, hashes %x, key %x: RankHash %v, stable sort %v", n, rt.hashes, kh, got, want)
				}
				if got[0] != rt.PickHash(kh) {
					t.Fatalf("%d members, key %x: RankHash[0] %s, PickHash %s", n, kh, got[0], rt.PickHash(kh))
				}
			}
		}
	}
}
