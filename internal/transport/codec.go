package transport

import (
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"sort"
	"sync"
)

// The message codec registry, keyed like the protocol registry: every
// protocol message type that may cross a real wire registers a Codec
// binding it to a stable wire name and a gob-encodable wire form. The
// simulator passes messages by reference and never consults the registry;
// real transports (internal/transport/tcp) refuse to carry an unregistered
// message.
//
// Most messages are their own wire form (plain structs with exported
// fields); messages holding unexported fields or pointer-cyclic metadata
// (intervals whose write notices point back at their interval) register an
// explicit flat wire struct plus the two conversions.

// Class partitions messages across a multiplexing transport's per-pair
// lanes. Control is the default: small latency-critical frames (barriers,
// locks, ownership, requests). Bulk marks large payload-bearing replies
// that would head-of-line-block control traffic on a shared connection.
// Region marks one-sided region-read traffic, which travels on its own
// dedicated connection served off the protocol handler loop entirely.
type Class uint8

const (
	ClassControl Class = iota
	ClassBulk
	ClassRegion
)

// Codec gives one protocol message type a wire encoding.
type Codec struct {
	// Name is the stable wire name (registered with gob, so it must never
	// change once peers may disagree on binary versions).
	Name string
	// Class assigns the message to a transport lane (default ClassControl).
	// Transports that do not multiplex ignore it.
	Class Class
	// Msg is a zero sample of the protocol message type; its dynamic type
	// keys the encode path.
	Msg Msg
	// Wire is a zero sample of the wire form; its dynamic type keys the
	// decode path and is registered with gob. Nil means the message is its
	// own wire form (Encode/Decode must then be nil too).
	Wire any
	// Encode converts the message to a value of the wire form.
	Encode func(m Msg) any
	// Decode reconstructs the message from a decoded wire value.
	Decode func(v any) Msg
	// AppendWire, set together with DecodeWire, gives the message a
	// hand-rolled binary encoding that real transports use in place of the
	// gob fallback. It appends the message's metadata to b and the large
	// []byte payloads (pages, diff run data) to payloads in traversal
	// order, returning both extended slices; the transport sends meta then
	// payloads as one vectored write, so payload bytes never pass through
	// an intermediate buffer (and appending to caller-pooled slices keeps
	// the hot path allocation-free). Payload slices must stay immutable
	// until the write completes (protocol messages carry fresh copies, so
	// this holds by construction).
	AppendWire func(m Msg, b []byte, payloads [][]byte) ([]byte, [][]byte)
	// DecodeWire reconstructs the message from one contiguous frame body
	// (metadata followed by payload bytes). Implementations slice payloads
	// out of body without copying — the decoded message owns (aliases) the
	// frame blob. Malformed input must return an error, never panic.
	DecodeWire func(body []byte) (Msg, error)
}

var (
	codecMu     sync.RWMutex
	codecByMsg  = map[reflect.Type]Codec{}
	codecByWire = map[reflect.Type]Codec{}
	codecByName = map[string]Codec{}
)

// RegisterCodec adds a message codec to the registry (and its wire form to
// gob under Name). It fails on duplicate names, duplicate message types,
// or a half-specified conversion.
func RegisterCodec(c Codec) error {
	if c.Name == "" {
		return fmt.Errorf("transport: codec name must not be empty")
	}
	if c.Msg == nil {
		return fmt.Errorf("transport: codec %q has no message sample", c.Name)
	}
	if (c.Encode == nil) != (c.Decode == nil) || (c.Wire == nil) != (c.Encode == nil) {
		return fmt.Errorf("transport: codec %q must set Wire, Encode and Decode together", c.Name)
	}
	if (c.AppendWire == nil) != (c.DecodeWire == nil) {
		return fmt.Errorf("transport: codec %q must set AppendWire and DecodeWire together", c.Name)
	}
	wire := c.Wire
	if wire == nil {
		wire = c.Msg
	}
	codecMu.Lock()
	defer codecMu.Unlock()
	if wireFrozen && c.AppendWire != nil {
		return fmt.Errorf("transport: binary codec %q registered after wire ids were frozen", c.Name)
	}
	if _, ok := codecByName[c.Name]; ok {
		return fmt.Errorf("transport: codec name %q already registered", c.Name)
	}
	mt := reflect.TypeOf(c.Msg)
	if _, ok := codecByMsg[mt]; ok {
		return fmt.Errorf("transport: message type %v already has a codec", mt)
	}
	wt := reflect.TypeOf(wire)
	if _, ok := codecByWire[wt]; ok {
		return fmt.Errorf("transport: wire type %v already has a codec", wt)
	}
	gob.RegisterName("adsm/"+c.Name, wire)
	codecByName[c.Name] = c
	codecByMsg[mt] = c
	codecByWire[wt] = c
	return nil
}

// MustRegisterCodec is RegisterCodec, panicking on error (init-time use).
func MustRegisterCodec(c Codec) {
	if err := RegisterCodec(c); err != nil {
		panic(err)
	}
}

// CodecOf returns the codec for a message value.
func CodecOf(m Msg) (Codec, bool) {
	codecMu.RLock()
	defer codecMu.RUnlock()
	c, ok := codecByMsg[reflect.TypeOf(m)]
	return c, ok
}

// ClassOf reports the lane class of a message (ClassControl when the
// message has no codec — error replies and handshake frames are control
// traffic by definition).
func ClassOf(m Msg) Class {
	if m == nil {
		return ClassControl
	}
	c, ok := CodecOf(m)
	if !ok {
		return ClassControl
	}
	return c.Class
}

// Codecs lists every registered codec in name order-independent map order;
// tests iterate it to pin wire invariants for all message types.
func Codecs() []Codec {
	codecMu.RLock()
	defer codecMu.RUnlock()
	out := make([]Codec, 0, len(codecByName))
	for _, c := range codecByName {
		out = append(out, c)
	}
	return out
}

// EncodeMsg converts a message to its wire value, ready for gob.
func EncodeMsg(m Msg) (any, error) {
	c, ok := CodecOf(m)
	if !ok {
		return nil, fmt.Errorf("transport: message %T has no registered codec", m)
	}
	if c.Encode == nil {
		return m, nil
	}
	return c.Encode(m), nil
}

// DecodeMsg reconstructs a message from a decoded wire value.
func DecodeMsg(v any) (Msg, error) {
	codecMu.RLock()
	c, ok := codecByWire[reflect.TypeOf(v)]
	codecMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: wire value %T has no registered codec", v)
	}
	if c.Decode == nil {
		return v.(Msg), nil
	}
	return c.Decode(v), nil
}

// Binary wire ids. Frames carrying a binary body name their codec by a
// dense uint16 id instead of a string. Ids are assigned deterministically
// — codecs with binary hooks, sorted by Name, numbered from 1 — and frozen
// at the first transport use, so every process linking the same message set
// agrees without negotiation. WireDigest folds the id assignment into one
// value that peers exchange in the mesh handshake: a mismatch (peers built
// from different message sets) refuses the connection instead of
// misdecoding frames.

var (
	wireFreezeOnce sync.Once
	wireFrozen     bool // guarded by codecMu; set inside the freeze
	wireByID       []Codec
	wireIDByMsg    map[reflect.Type]uint16
	wireDigest     uint64
)

func freezeWire() {
	wireFreezeOnce.Do(func() {
		codecMu.Lock()
		defer codecMu.Unlock()
		var names []string
		for name, c := range codecByName {
			if c.AppendWire != nil {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		h := fnv.New64a()
		wireByID = make([]Codec, len(names))
		wireIDByMsg = make(map[reflect.Type]uint16, len(names))
		for i, name := range names {
			c := codecByName[name]
			wireByID[i] = c
			wireIDByMsg[reflect.TypeOf(c.Msg)] = uint16(i + 1)
			io.WriteString(h, name)
			h.Write([]byte{0})
		}
		wireDigest = h.Sum64()
		wireFrozen = true
	})
}

// WireIDOf returns the frozen wire id of m's binary codec, or false if m
// has no binary encoding (gob fallback). The first call freezes the id
// assignment; registering further binary codecs afterwards is an error.
func WireIDOf(m Msg) (uint16, bool) {
	freezeWire()
	id, ok := wireIDByMsg[reflect.TypeOf(m)]
	return id, ok
}

// WireCodecByID resolves a frozen wire id back to its codec.
func WireCodecByID(id uint16) (Codec, bool) {
	freezeWire()
	if id < 1 || int(id) > len(wireByID) {
		return Codec{}, false
	}
	return wireByID[id-1], true
}

// WireDigest summarizes the frozen binary codec set; peers exchange it in
// the mesh handshake and refuse to connect on a mismatch.
func WireDigest() uint64 {
	freezeWire()
	return wireDigest
}

// WireBody renders m's full binary frame body (metadata followed by the
// payload section) into one contiguous slice. The transport proper never
// materializes this — it hands meta and payloads to the socket as separate
// iovecs — but tests and size audits want the exact on-wire bytes.
func WireBody(m Msg) ([]byte, bool) {
	c, ok := CodecOf(m)
	if !ok || c.AppendWire == nil {
		return nil, false
	}
	meta, payloads := c.AppendWire(m, nil, nil)
	for _, p := range payloads {
		meta = append(meta, p...)
	}
	return meta, true
}
