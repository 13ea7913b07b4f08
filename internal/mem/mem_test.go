package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageGeometry(t *testing.T) {
	if PageOf(0) != 0 || PageOf(PageSize-1) != 0 || PageOf(PageSize) != 1 {
		t.Fatalf("PageOf wrong")
	}
	if PageBase(3) != 3*PageSize {
		t.Fatalf("PageBase wrong")
	}
}

func TestDiffIdenticalPagesIsEmpty(t *testing.T) {
	p := NewPage()
	tw := Twin(p)
	d := MakeDiff(0, tw, p)
	if !d.Empty() || d.DataBytes() != 0 {
		t.Fatalf("diff of identical pages not empty: %v", d)
	}
}

func TestDiffSingleWord(t *testing.T) {
	p := NewPage()
	tw := Twin(p)
	StoreUint32(p, 100, 0xdeadbeef)
	d := MakeDiff(0, tw, p)
	if len(d.Runs) != 1 {
		t.Fatalf("want 1 run, got %d", len(d.Runs))
	}
	if d.Runs[0].Off != 100 || len(d.Runs[0].Data) != WordSize {
		t.Fatalf("bad run %+v", d.Runs[0])
	}
	if d.DataBytes() != 4 {
		t.Fatalf("DataBytes = %d", d.DataBytes())
	}
}

func TestDiffCoalescesAdjacentWords(t *testing.T) {
	p := NewPage()
	tw := Twin(p)
	for off := 200; off < 232; off += 4 {
		StoreUint32(p, off, uint32(off))
	}
	d := MakeDiff(0, tw, p)
	if len(d.Runs) != 1 {
		t.Fatalf("adjacent modified words should coalesce into 1 run, got %d", len(d.Runs))
	}
	if d.Runs[0].Off != 200 || len(d.Runs[0].Data) != 32 {
		t.Fatalf("bad coalesced run %+v", d.Runs[0])
	}
}

func TestDiffSeparateRuns(t *testing.T) {
	p := NewPage()
	tw := Twin(p)
	StoreUint32(p, 0, 1)
	StoreUint32(p, 1024, 2)
	d := MakeDiff(0, tw, p)
	if len(d.Runs) != 2 {
		t.Fatalf("want 2 runs, got %d", len(d.Runs))
	}
}

func TestApplyReconstructs(t *testing.T) {
	p := NewPage()
	for i := range p {
		p[i] = byte(i * 7)
	}
	tw := Twin(p)
	// Mutate scattered regions.
	copy(p[40:60], bytes.Repeat([]byte{0xAA}, 20))
	copy(p[4000:4096], bytes.Repeat([]byte{0x55}, 96))
	d := MakeDiff(0, tw, p)
	rebuilt := Twin(tw)
	d.Apply(rebuilt)
	if !bytes.Equal(rebuilt, p) {
		t.Fatalf("apply(diff(twin,cur), twin) != cur")
	}
}

func TestWholePageOverwriteDiffSize(t *testing.T) {
	p := NewPage()
	tw := Twin(p)
	for i := range p {
		p[i] = byte(i + 1)
	}
	d := MakeDiff(0, tw, p)
	if d.DataBytes() < PageSize-WordSize {
		t.Fatalf("whole-page overwrite diff should be ~page size, got %d", d.DataBytes())
	}
	if d.EncodedSize() <= d.DataBytes() {
		t.Fatalf("encoded size must include headers")
	}
}

// Property: for random twin/current pairs, applying the diff to the twin
// reproduces the current page exactly.
func TestQuickDiffRoundTrip(t *testing.T) {
	f := func(seed int64, nmods uint8) bool {
		r := rand.New(rand.NewSource(seed))
		p := NewPage()
		r.Read(p)
		tw := Twin(p)
		for i := 0; i < int(nmods); i++ {
			off := r.Intn(PageSize)
			p[off] = byte(r.Int())
		}
		d := MakeDiff(0, tw, p)
		rebuilt := Twin(tw)
		d.Apply(rebuilt)
		return bytes.Equal(rebuilt, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: concurrent diffs that touch disjoint words commute (the
// correctness condition MW merging relies on under data-race-free
// programs with false sharing only).
func TestQuickDisjointDiffsCommute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := NewPage()
		r.Read(base)
		// Writer A mutates even 64-byte blocks, writer B odd blocks.
		pa := Twin(base)
		pb := Twin(base)
		for blk := 0; blk < PageSize/64; blk++ {
			off := blk * 64
			if blk%2 == 0 {
				pa[off] = byte(r.Int()) | 1
			} else {
				pb[off+1] = byte(r.Int()) | 1
			}
		}
		da := MakeDiff(0, base, pa)
		db := MakeDiff(0, base, pb)
		ab := Twin(base)
		da.Apply(ab)
		db.Apply(ab)
		ba := Twin(base)
		db.Apply(ba)
		da.Apply(ba)
		return bytes.Equal(ab, ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: diff data bytes never exceed the page size, and the encoded
// size is bounded by data + per-run overhead.
func TestQuickDiffSizeBounds(t *testing.T) {
	f := func(seed int64, nmods uint8) bool {
		r := rand.New(rand.NewSource(seed))
		p := NewPage()
		tw := Twin(p)
		for i := 0; i < int(nmods); i++ {
			p[r.Intn(PageSize)] = byte(r.Int()) | 1
		}
		d := MakeDiff(0, tw, p)
		if d.DataBytes() > PageSize {
			return false
		}
		return d.EncodedSize() <= 8+len(d.Runs)*4+d.DataBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	p := NewPage()
	StoreUint64(p, 8, 0x0102030405060708)
	if LoadUint64(p, 8) != 0x0102030405060708 {
		t.Fatalf("u64 roundtrip failed")
	}
	StoreUint32(p, 0, 42)
	if LoadUint32(p, 0) != 42 {
		t.Fatalf("u32 roundtrip failed")
	}
}

// referenceMakeDiff is MakeDiff as it stood before the one-scan rewrite,
// kept verbatim as the oracle for the tests below. It panics on a length
// that is not a multiple of WordSize, so it is only asked about whole words.
func referenceMakeDiff(page int, twin, cur []byte) *Diff {
	if len(twin) != len(cur) {
		panic("mem: twin/page size mismatch")
	}
	d := &Diff{Page: page}
	n := len(cur)
	i := 0
	for i < n {
		// Find the next differing word.
		for i < n && wordEqual(twin, cur, i) {
			i += WordSize
		}
		if i >= n {
			break
		}
		start := i
		for i < n && !wordEqual(twin, cur, i) {
			i += WordSize
		}
		run := Run{Off: start, Data: make([]byte, i-start)}
		copy(run.Data, cur[start:i])
		d.Runs = append(d.Runs, run)
	}
	return d
}

func wordEqual(a, b []byte, off int) bool {
	end := off + WordSize
	if end > len(a) {
		end = len(a)
	}
	for i := off; i < end; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAgainstReference asserts that MakeDiff(twin, cur) equals the
// reference run for run, sizes included, and does not alias cur.
func checkAgainstReference(t *testing.T, twin, cur []byte) {
	t.Helper()
	got, want := MakeDiff(7, twin, cur), referenceMakeDiff(7, twin, cur)
	if got.Page != want.Page || len(got.Runs) != len(want.Runs) {
		t.Fatalf("page %d with %d runs, want page %d with %d", got.Page, len(got.Runs), want.Page, len(want.Runs))
	}
	for i, r := range got.Runs {
		if w := want.Runs[i]; r.Off != w.Off || !bytes.Equal(r.Data, w.Data) {
			t.Fatalf("run %d = {%d, %d bytes}, want {%d, %d bytes}", i, r.Off, len(r.Data), w.Off, len(w.Data))
		}
	}
	if got.EncodedSize() != want.EncodedSize() || got.DataBytes() != want.DataBytes() {
		t.Fatalf("sizes %d/%d, want %d/%d", got.EncodedSize(), got.DataBytes(), want.EncodedSize(), want.DataBytes())
	}
	// The runs must be copies: later writes to the page leave the diff
	// alone, and appending to one run must not reach into the next.
	saved := append([]byte(nil), cur...)
	for i := range cur {
		cur[i] ^= 0x5a
	}
	for i := range got.Runs {
		got.Runs[i].Data = append(got.Runs[i].Data, 0xee)[:len(got.Runs[i].Data)]
	}
	for i, r := range got.Runs {
		if !bytes.Equal(r.Data, want.Runs[i].Data) {
			t.Fatalf("run %d changed after the page or its neighbour was written", i)
		}
	}
	copy(cur, saved)
}

// dirtyPage returns a random twin of n bytes and a copy in which each word
// starts or continues a modified stretch with the given probabilities, so
// one seed covers anything from a lone word to a rewritten page.
func dirtyPage(rng *rand.Rand, n int, pStart, pStay float64) (twin, cur []byte) {
	twin = make([]byte, n)
	rng.Read(twin)
	cur = Twin(twin)
	in := false
	for off := 0; off < n; off += WordSize {
		p := pStart
		if in {
			p = pStay
		}
		if in = rng.Float64() < p; in {
			// Flip one byte of the word, any of them: a run boundary must
			// not depend on where in the word the difference sits.
			at := off + rng.Intn(min(WordSize, n-off))
			cur[at] ^= byte(1 + rng.Intn(255))
		}
	}
	return twin, cur
}

func TestMakeDiffMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		n := PageSize
		if i%4 == 3 {
			n = WordSize * rng.Intn(3*PageSize/WordSize) // other sizes, above a page too
		}
		twin, cur := dirtyPage(rng, n, rng.Float64()*rng.Float64(), rng.Float64())
		checkAgainstReference(t, twin, cur)
	}
}

func FuzzMakeDiff(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte("abcdefgh"), []byte("abcdEfgh"))
	f.Add(bytes.Repeat([]byte{0}, 600), bytes.Repeat([]byte{0, 0, 0, 0, 1, 0, 0, 0}, 75))
	f.Fuzz(func(t *testing.T, twin, cur []byte) {
		n := min(len(twin), len(cur)) &^ (WordSize - 1)
		checkAgainstReference(t, twin[:n], cur[:n])
	})
}

// TestMakeDiffPartialLastWord pins the fix for lengths that are not a
// multiple of WordSize: the reference sliced cur past its end ("slice
// bounds out of range [:8] with capacity 6") whenever the partial word
// differed.
func TestMakeDiffPartialLastWord(t *testing.T) {
	d := MakeDiff(0, []byte{1, 2, 3, 4, 5, 6}, []byte{1, 2, 3, 4, 5, 9})
	if len(d.Runs) != 1 || d.Runs[0].Off != 4 || !bytes.Equal(d.Runs[0].Data, []byte{5, 9}) {
		t.Fatalf("6-byte pair: runs %+v, want one run {4, [5 9]}", d.Runs)
	}
	rng := rand.New(rand.NewSource(6))
	for n := 0; n <= PageSize+3; n++ {
		twin, cur := dirtyPage(rng, n, 0.1, 0.6)
		if n > 0 {
			cur[n-1] ^= byte(n) // the tail differs in three lengths out of four
		}
		d := MakeDiff(0, twin, cur)
		rebuilt := Twin(twin)
		d.Apply(rebuilt)
		if !bytes.Equal(rebuilt, cur) {
			t.Fatalf("length %d: Apply(twin) does not reproduce cur", n)
		}
		for _, r := range d.Runs {
			if r.Off%WordSize != 0 || r.Off+len(r.Data) > n {
				t.Fatalf("length %d: run {%d, %d bytes} off the word grid or past the end", n, r.Off, len(r.Data))
			}
		}
	}
}

// TestMakeDiffAllocs pins the allocation count: the Diff, its Runs and one
// buffer under every run, whatever the density.
func TestMakeDiffAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		name         string
		pStart, pEnd float64
		max          float64
	}{{"empty", 0, 0, 1}, {"sparse", 0.01, 0.9, 3}, {"dense", 1, 0, 3}, {"full", 1, 1, 3}} {
		twin, cur := dirtyPage(rng, PageSize, c.pStart, c.pEnd)
		if got := testing.AllocsPerRun(50, func() { MakeDiff(0, twin, cur) }); got > c.max {
			t.Errorf("%s: %v allocations, want at most %v", c.name, got, c.max)
		}
	}
}
