package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The traced pass records a span around each call the benchmark makes into
// a layer: layer and name, start and end, the span that caused it, and a
// request id shared by all spans of one worker's run. Spans are written
// only by the benchmark's own files — nothing inside the program under
// test is instrumented — into buffers allocated before the timed region,
// and leave the process as Chrome-trace JSON when the benchmark ends.

type span struct {
	layer, name string
	tid         int   // Chrome-trace thread: 0 is the benchmark, w+1 is SPMD worker w
	req         int   // shared by the spans of one request; 0 for none
	parent      int   // id of the span that caused this one; -1 for none
	start, dur  int64 // nanoseconds since the tracer's epoch
}

// tracer owns the span buffers of one benchmark process. A nil *tracer is
// the untraced pass: every method is a no-op.
type tracer struct {
	epoch time.Time

	mu   sync.Mutex
	bufs []*spanBuf
	next int // first span id of the next buffer
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanBuf is a preallocated run of spans written by one goroutine. Span
// ids are base+index, so they are unique across buffers without a shared
// counter in the timed loop.
type spanBuf struct {
	t       *tracer
	base    int
	spans   []span
	dropped int
}

// buf reserves a buffer of n spans. Call it outside the timed region.
func (t *tracer) buf(n int) *spanBuf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{t: t, base: t.next, spans: make([]span, 0, n)}
	t.next += n
	t.bufs = append(t.bufs, b)
	return b
}

// add records one finished span and returns its id (-1 when untraced or
// the buffer is full; a full buffer counts the drop and never grows).
func (b *spanBuf) add(layer, name string, tid, req, parent int, start, end time.Time) int {
	if b == nil {
		return -1
	}
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, span{layer: layer, name: name, tid: tid, req: req, parent: parent,
		start: int64(start.Sub(b.t.epoch)), dur: int64(end.Sub(start))})
	return b.base + len(b.spans) - 1
}

// nextID is the id add will give the next span: a parent can name itself
// to its children before it has ended.
func (b *spanBuf) nextID() int {
	if b == nil {
		return -1
	}
	return b.base + len(b.spans)
}

// write renders every span as a Chrome-trace complete event ("ph":"X",
// microsecond timestamps) to path, creating its directory.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, b := range t.bufs {
		for i, s := range b.spans {
			if !first {
				w.WriteByte(',')
			}
			first = false
			name, _ := json.Marshal(s.name) // a string always marshals
			fmt.Fprintf(w, "\n"+`{"name":%s,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"req":%d}}`,
				name, s.layer, s.tid, float64(s.start)/1e3, float64(s.dur)/1e3, b.base+i, s.parent, s.req)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	return w.Flush()
}

// spans and dropped count what the tracer holds.
func (t *tracer) counts() (spans, dropped int) {
	for _, b := range t.bufs {
		spans += len(b.spans)
		dropped += b.dropped
	}
	return spans, dropped
}
