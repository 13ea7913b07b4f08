// Package kv is a DSM-backed key-value store: an open-addressed hash
// table laid out in a page-aligned Shared[uint64] array, with per-stripe
// locks from the cluster's lock manager and all slot traffic going through
// the span/bulk fast path. It is the serving-workload counterpart to the
// barrier-phased scientific kernels in internal/apps — lock-centric, hot
// pages rewritten in place, the access pattern where the protocols'
// invalidation and write-propagation choices actually bite.
package kv

import (
	"fmt"

	"adsm"
)

// Slot layout, in 64-bit words. A slot is one cache-line-sized record:
//
//	word 0   header (slotEmpty / slotOccupied / slotTombstone)
//	word 1   key
//	words 2+ value (ValWords words)
//
// 8 words = 64 bytes, so 64 slots tile a 4 KB page exactly.
const (
	ValWords  = 6
	SlotWords = 2 + ValWords

	slotEmpty     = 0
	slotOccupied  = 1
	slotTombstone = 2

	// StripeSlots slots form one lock stripe (1 KB: four stripes per page,
	// so concurrent writers of neighboring stripes exercise write-write
	// false sharing on the page while staying disjoint at byte level).
	StripeSlots = 16
	stripeWords = StripeSlots * SlotWords
)

// Value is one record's payload.
type Value [ValWords]uint64

// Table is the shared hash table. The handle is worker-free (like
// Shared[T]): build it once before Run, use it from every worker.
//
// Keys hash to a stripe; probing is linear within the stripe only, so one
// lock covers any operation's whole probe sequence. Tombstones never
// revert to empty — a probe may stop early at slotEmpty because empties
// are only ever consumed, left to right in probe order, never created.
type Table struct {
	arr      adsm.Shared[uint64]
	stripes  int
	lockBase int
}

// New builds a table sized for keys drawn from [0, keys): stripe count is
// chosen so every possible key has a slot (per-stripe load at most
// StripeSlots) with at least 2x headroom. The table occupies whole pages;
// locks lockBase..lockBase+Stripes()-1 must be reserved for it.
func New(cl *adsm.Cluster, keys, lockBase int) *Table {
	if keys <= 0 {
		panic(fmt.Sprintf("kv: table for %d keys", keys))
	}
	stripesPerPage := adsm.PageSize / (stripeWords * 8)
	stripes := (2*keys + StripeSlots - 1) / StripeSlots
	if r := stripes % stripesPerPage; r != 0 {
		stripes += stripesPerPage - r
	}
	// The key range is known in full, so verify deterministically that no
	// stripe overflows; grow by whole pages until none does.
	for {
		load := make([]int, stripes)
		ok := true
		for k := 0; k < keys; k++ {
			s := int(splitmix64(uint64(k)) % uint64(stripes))
			load[s]++
			if load[s] > StripeSlots {
				ok = false
				break
			}
		}
		if ok {
			break
		}
		stripes += stripesPerPage
	}
	return &Table{
		arr:      adsm.AllocArrayPageAligned[uint64](cl, stripes*stripeWords),
		stripes:  stripes,
		lockBase: lockBase,
	}
}

// Stripes returns the number of lock stripes (== locks used).
func (t *Table) Stripes() int { return t.stripes }

// LockFor returns the lock id guarding key's stripe — exported so tests
// can collide with table traffic on purpose.
func (t *Table) LockFor(key uint64) int {
	return t.lockBase + int(splitmix64(key)%uint64(t.stripes))
}

// stripeOf returns the stripe index and the preferred starting slot
// within it (both derived from one hash, so a key's probe sequence is a
// pure function of the key).
func (t *Table) stripeOf(key uint64) (stripe, start int) {
	h := splitmix64(key)
	return int(h % uint64(t.stripes)), int((h >> 32) % StripeSlots)
}

// Get returns the value stored for key. It holds the stripe lock shared:
// that excludes in-place writers (a torn slot read would otherwise be
// possible under LRC) but not other readers, and the read grant stays
// cached on the node, so repeated Gets of a stripe nobody writes send no
// lock messages. A Put or Delete on the stripe revokes the cached grants
// before it writes.
func (t *Table) Get(w *adsm.Worker, key uint64) (val Value, ok bool) {
	stripe, start := t.stripeOf(key)
	lock := t.lockBase + stripe
	w.RLock(lock)
	t.arr.Span(w, stripe*stripeWords, (stripe+1)*stripeWords, adsm.Read, func(_ int, p []uint64) {
		for probe := 0; probe < StripeSlots; probe++ {
			s := ((start + probe) % StripeSlots) * SlotWords
			switch p[s] {
			case slotEmpty:
				return
			case slotOccupied:
				if p[s+1] == key {
					copy(val[:], p[s+2:s+SlotWords])
					ok = true
					return
				}
			}
		}
	})
	w.RUnlock(lock)
	return val, ok
}

// Put stores val under key, overwriting in place when the key is present
// and claiming the first free (empty or tombstone) probe slot otherwise.
// Panics if the stripe is full — impossible for keys within the range the
// table was sized for.
func (t *Table) Put(w *adsm.Worker, key uint64, val Value) {
	stripe, start := t.stripeOf(key)
	lock := t.lockBase + stripe
	w.Lock(lock)
	t.arr.Span(w, stripe*stripeWords, (stripe+1)*stripeWords, adsm.ReadWrite, func(_ int, p []uint64) {
		free := -1
		for probe := 0; probe < StripeSlots; probe++ {
			s := ((start + probe) % StripeSlots) * SlotWords
			switch p[s] {
			case slotEmpty:
				if free < 0 {
					free = s
				}
				probe = StripeSlots // key is absent past the first empty
			case slotTombstone:
				if free < 0 {
					free = s
				}
			case slotOccupied:
				if p[s+1] == key {
					copy(p[s+2:s+SlotWords], val[:])
					return
				}
			}
		}
		if free < 0 {
			panic(fmt.Sprintf("kv: stripe %d full inserting key %d", stripe, key))
		}
		p[free] = slotOccupied
		p[free+1] = key
		copy(p[free+2:free+SlotWords], val[:])
	})
	w.Unlock(lock)
}

// Delete removes key, reporting whether it was present. The slot becomes
// a tombstone (never empty again) so other keys' probe sequences stay
// valid.
func (t *Table) Delete(w *adsm.Worker, key uint64) (deleted bool) {
	stripe, start := t.stripeOf(key)
	lock := t.lockBase + stripe
	w.Lock(lock)
	t.arr.Span(w, stripe*stripeWords, (stripe+1)*stripeWords, adsm.ReadWrite, func(_ int, p []uint64) {
		for probe := 0; probe < StripeSlots; probe++ {
			s := ((start + probe) % StripeSlots) * SlotWords
			switch p[s] {
			case slotEmpty:
				return
			case slotOccupied:
				if p[s+1] == key {
					p[s] = slotTombstone
					deleted = true
					return
				}
			}
		}
	})
	w.Unlock(lock)
	return deleted
}

// Checksum folds every occupied slot into a position-independent sum:
// physical slot placement depends on operation interleaving (which free
// slot an insert claimed), but the logical contents do not, so the
// commutative fold is identical across transports and matches the
// host-side model replay (Workload.ExpectedChecksum). Call it after a
// barrier, with no concurrent writers.
func (t *Table) Checksum(w *adsm.Worker) uint64 {
	var sum uint64
	t.arr.Span(w, 0, t.stripes*stripeWords, adsm.Read, func(_ int, p []uint64) {
		for s := 0; s+SlotWords <= len(p); s += SlotWords {
			if p[s] == slotOccupied {
				var val Value
				copy(val[:], p[s+2:s+SlotWords])
				sum += slotMix(p[s+1], val)
			}
		}
	})
	return sum
}

// slotMix hashes one record; the commutative wrapping sum of slotMix over
// all live records is the table checksum.
func slotMix(key uint64, val Value) uint64 {
	h := splitmix64(key ^ 0x7b2d_c0de_5eed_f00d)
	for j, v := range val {
		h ^= splitmix64(v + key + uint64(j)*0x9e3779b97f4a7c15)
	}
	return h
}

// splitmix64 is the SplitMix64 finalizer — the table's hash and the
// seeding mixer for the per-worker generators.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
