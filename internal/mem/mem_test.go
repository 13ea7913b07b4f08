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
	if d.NumRuns() != 0 || d.DataBytes() != 0 {
		t.Fatalf("diff of identical pages not empty: %v", d)
	}
}

func TestDiffSingleWord(t *testing.T) {
	p := NewPage()
	tw := Twin(p)
	StoreUint32(p, 100, 0xdeadbeef)
	runs := runsOf(MakeDiff(0, tw, p))
	if len(runs) != 1 {
		t.Fatalf("want 1 run, got %d", len(runs))
	}
	if runs[0].off != 100 || len(runs[0].data) != WordSize {
		t.Fatalf("bad run %+v", runs[0])
	}
	d := MakeDiff(0, tw, p)
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
	runs := runsOf(MakeDiff(0, tw, p))
	if len(runs) != 1 {
		t.Fatalf("adjacent modified words should coalesce into 1 run, got %d", len(runs))
	}
	if runs[0].off != 200 || len(runs[0].data) != 32 {
		t.Fatalf("bad coalesced run %+v", runs[0])
	}
}

func TestDiffSeparateRuns(t *testing.T) {
	p := NewPage()
	tw := Twin(p)
	StoreUint32(p, 0, 1)
	StoreUint32(p, 1024, 2)
	if n := MakeDiff(0, tw, p).NumRuns(); n != 2 {
		t.Fatalf("want 2 runs, got %d", n)
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
		return d.EncodedSize() <= 8+d.NumRuns()*4+d.DataBytes()
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

// run is one run of a diff, as the tests compare them.
type run struct {
	off  int
	data []byte
}

// runsOf lists a diff's runs.
func runsOf(d *Diff) []run {
	var rs []run
	for off, data := range d.Runs() {
		rs = append(rs, run{off, data})
	}
	return rs
}

// referenceMakeDiff is MakeDiff as it stood before the one-scan rewrite,
// kept verbatim as the oracle for the tests below, except that it returns
// the runs as a list. It panics on a length that is not a multiple of
// WordSize, so it is only asked about whole words.
func referenceMakeDiff(twin, cur []byte) []run {
	if len(twin) != len(cur) {
		panic("mem: twin/page size mismatch")
	}
	var runs []run
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
		r := run{off: start, data: make([]byte, i-start)}
		copy(r.data, cur[start:i])
		runs = append(runs, r)
	}
	return runs
}

// encodedSize is the wire size of a diff of page with these runs.
func encodedSize(page int, runs []run) int {
	n := uvarintLen(uint64(page)) + uvarintLen(uint64(len(runs)))
	for _, r := range runs {
		n += uvarintLen(uint64(r.off)) + uvarintLen(uint64(len(r.data))) + len(r.data)
	}
	return n
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
	d, want := MakeDiff(7, twin, cur), referenceMakeDiff(twin, cur)
	got := runsOf(d)
	if d.Page != 7 || d.NumRuns() != len(want) || len(got) != len(want) {
		t.Fatalf("page %d with %d runs (%d listed), want page 7 with %d", d.Page, d.NumRuns(), len(got), len(want))
	}
	data := 0
	for i, r := range got {
		if w := want[i]; r.off != w.off || !bytes.Equal(r.data, w.data) {
			t.Fatalf("run %d = {%d, %d bytes}, want {%d, %d bytes}", i, r.off, len(r.data), w.off, len(w.data))
		}
		data += len(r.data)
	}
	if d.EncodedSize() != encodedSize(7, want) || d.DataBytes() != data {
		t.Fatalf("sizes %d/%d, want %d/%d", d.EncodedSize(), d.DataBytes(), encodedSize(7, want), data)
	}
	// The runs must be copies: later writes to the page leave the diff
	// alone, and appending to one run must not reach into the next.
	saved := append([]byte(nil), cur...)
	for i := range cur {
		cur[i] ^= 0x5a
	}
	for _, r := range got {
		_ = append(r.data, 0xee)
	}
	for i, r := range runsOf(d) {
		if !bytes.Equal(r.data, want[i].data) {
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
	runs := runsOf(MakeDiff(0, []byte{1, 2, 3, 4, 5, 6}, []byte{1, 2, 3, 4, 5, 9}))
	if len(runs) != 1 || runs[0].off != 4 || !bytes.Equal(runs[0].data, []byte{5, 9}) {
		t.Fatalf("6-byte pair: runs %+v, want one run {4, [5 9]}", runs)
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
		for off, data := range d.Runs() {
			if off%WordSize != 0 || off+len(data) > n {
				t.Fatalf("length %d: run {%d, %d bytes} off the word grid or past the end", n, off, len(data))
			}
		}
	}
}

// TestMakeDiffAllocs pins the allocation count: the Diff and one buffer
// under its run table and data, whatever the density.
func TestMakeDiffAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		name         string
		pStart, pEnd float64
		max          float64
	}{{"empty", 0, 0, 1}, {"sparse", 0.01, 0.9, 2}, {"dense", 1, 0, 2}, {"full", 1, 1, 2}} {
		twin, cur := dirtyPage(rng, PageSize, c.pStart, c.pEnd)
		if got := testing.AllocsPerRun(50, func() { MakeDiff(0, twin, cur) }); got > c.max {
			t.Errorf("%s: %v allocations, want at most %v", c.name, got, c.max)
		}
	}
}

// TestDiffRunsBackToBack pins the layout's invariant: the runs lie back to
// back, in order, in the one buffer Data returns, as MakeDiff, Attach and
// Detach leave them, and each run's view is capped at its own length.
func TestDiffRunsBackToBack(t *testing.T) {
	twin, cur := NewPage(), NewPage()
	for off := 0; off < PageSize; off += 8 {
		StoreUint64(cur, off, 4)
	}
	check := func(what string, d *Diff) {
		t.Helper()
		data, at := d.Data(), 0
		if len(data) != d.DataBytes() || d.NumRuns() != PageSize/8 {
			t.Fatalf("%s: %d runs over %d of %d bytes", what, d.NumRuns(), len(data), d.DataBytes())
		}
		for off, r := range d.Runs() {
			if off != 2*at || !bytes.Equal(r, []byte{4, 0, 0, 0}) || cap(r) != len(r) || &r[0] != &data[at] {
				t.Fatalf("%s: run at %d = %v with capacity %d, not data[%d:%d]", what, off, r, cap(r), at, at+len(r))
			}
			at += len(r)
		}
		if at != len(data) {
			t.Fatalf("%s: runs cover %d of %d data bytes", what, at, len(data))
		}
	}
	d := MakeDiff(1, twin, cur)
	check("MakeDiff", d)
	table := d.Table()
	d.Detach()
	check("Detach", d)
	if &d.Table()[0] == &table[0] || !bytes.Equal(d.Table(), table) {
		t.Fatalf("Detach did not copy the run table")
	}
	read, k, ok := ReadDiff(1, PageSize/8, append(table, 0xff))
	if !ok || k != len(table) {
		t.Fatalf("ReadDiff: %v over %d of %d table bytes", ok, k, len(table))
	}
	read.Attach(bytes.Repeat([]byte{4, 0, 0, 0}, PageSize/8))
	check("Attach", read)
}

// TestReadDiffRefuses: a run table cut short or with a run that leaves the
// page does not read.
func TestReadDiffRefuses(t *testing.T) {
	for _, c := range []struct {
		count int
		table []byte
	}{
		{1, nil},
		{1, []byte{8}},
		{2, []byte{8, 4}},
		{1, []byte{0x88, 0x20, 8}}, // starts past the page
		{1, []byte{0xfc, 0x1f, 8}}, // starts inside, ends past
		{1, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 4}},
	} {
		if d, k, ok := ReadDiff(2, c.count, c.table); ok || k != 0 || d.NumRuns() != 0 || d.DataBytes() != 0 {
			t.Errorf("table %x of %d runs read as %v: %d bytes, %d runs", c.table, c.count, ok, k, d.NumRuns())
		}
	}
}

// benchPages are the ladder's three dirtiness levels: one 64-byte run (a
// kv slot), every other word, and the whole page.
func benchPages() (twin []byte, dirty map[string][]byte) {
	rng := rand.New(rand.NewSource(1))
	twin = NewPage()
	rng.Read(twin)
	dirtied := func(dirty func(off int) bool) []byte {
		cur := Twin(twin)
		for off := 0; off < PageSize; off += WordSize {
			if dirty(off) {
				cur[off] ^= 0xff
			}
		}
		return cur
	}
	return twin, map[string][]byte{
		"sparse": dirtied(func(off int) bool { return off >= 1024 && off < 1024+64 }),
		"dense":  dirtied(func(off int) bool { return off%(2*WordSize) == 0 }),
		"full":   dirtied(func(int) bool { return true }),
	}
}

var (
	sinkDiff *Diff
	sinkInt  int
)

func BenchmarkMakeDiff(b *testing.B) {
	twin, dirty := benchPages()
	for _, name := range []string{"sparse", "dense", "full"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkDiff = MakeDiff(0, twin, dirty[name])
			}
		})
	}
}

func BenchmarkDiffApply(b *testing.B) {
	twin, dirty := benchPages()
	dst := NewPage()
	for _, name := range []string{"sparse", "dense", "full"} {
		d := MakeDiff(0, twin, dirty[name])
		b.Run(name, func(b *testing.B) {
			for b.Loop() {
				d.Apply(dst)
			}
		})
	}
}

func BenchmarkDiffEncodedSize(b *testing.B) {
	twin, dirty := benchPages()
	d := MakeDiff(0, twin, dirty["dense"])
	for b.Loop() {
		sinkInt = d.EncodedSize()
	}
}
