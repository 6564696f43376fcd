package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
)

// This file is the cluster wire codec: every byte a peer sends is read
// here, in one layout. A message is its struct's fields in declaration
// order (writer.put, reader.get):
//
//	bool, integers, floats  8 bytes little-endian: integers sign- or
//	                        zero-extended, floats as float64 IEEE bits,
//	                        bool 0 or 1
//	string                  uvarint byte length, then the bytes
//	slice, map              uvarint n+1 (0 = nil), then n elements
//	                        (a map: n key/value pairs)
//	struct                  its fields in order
//	interface               a tagged value
//
// The cold control messages (join, members, fetch, trace, stats) are
// walked whole (encode, decode). The two flow-path parcels —
// "cluster.stage" and "cluster.complete", one of each per remote hop —
// are written by hand in the same field encodings, at most one
// allocation per body (none for a re-headed one, below), with a 1-byte
// status:
//
//	stage:    Flow | FlowEpoch | Stage | Key | Deadline | Priority | Pipe |
//	          Origin str | value
//	complete: Flow | FlowEpoch | Status u8 | Err str | value
//
// A value is one tag byte and its payload, and always ends a flow
// parcel. Nil, scalars, strings and []byte have decoders of their own;
// the composite tags are walked, an element of []any or map[string]any
// being a tagged value in turn:
//
//	tag   type                        payload
//	0     nil                         none
//	1–14  bool, every integer type    8 bytes; the tag is the
//	      but uintptr, float32/64     reflect.Kind
//	17    string                      uvarint length, then the bytes
//	18    []byte                      uvarint n+1, then the raw bytes
//	19    []int                       walked
//	20    []string
//	21    []float64
//	22    map[string]int
//	23    map[string]string
//	24    []any
//	25    map[string]any
//
// A composite value nests at most maxDepth elements deep. A value of
// any other type cannot cross the wire: its encode fails naming the
// type, and the flow layer degrades — the forward path runs the stage
// at the origin, the result path resolves the flow StatusFailed.
// Decoding returns a value of exactly the sent dynamic type; a decoded
// []byte aliases the parcel body, which the receiving handler owns (see
// parcel.TransportHandler). The netparcel frame around a body is
// documented in that package.
//
// Because the handler owns the body, a flow's []byte is copied once,
// at its origin. A stage that hands back the []byte that arrived with
// it (the value still starts right behind its parcel's fixed fields,
// its room) ships onward in the body it arrived in: the next parcel's
// fixed fields are written at the start of that array, over the old
// ones, and the value stays where it is (a stage parcel whose fields
// are the same size) or moves down behind the shorter completion
// fields. Every other value is copied into a new body.

// maxDepth bounds how deeply composite values nest inside []any and
// map[string]any elements, so a forged chain of nested []any headers
// fails instead of recursing the delivery goroutine off its stack.
const maxDepth = 32

// joinMsg rides "cluster.join", the Call a joiner makes to any member.
type joinMsg struct {
	ID   string
	Addr string
}

// memberMsg is the membership snapshot: the join reply, the
// "cluster.members" broadcast, and the member list of a node's view.
type memberMsg struct {
	Epoch   uint64
	Members map[string]string // node id -> dialable address
}

// stageMsg ships the remainder of a flow to the node owning its next
// stage ("cluster.stage"). Origin is the node holding the flow's
// pending finish entry (Node.pending); completions return there. The
// stage input travels after the fixed fields (encodeStage).
type stageMsg struct {
	Flow uint64 // origin-scoped flow id
	// FlowEpoch is the origin's recovery attempt counter for this flow.
	// Every re-route after a suspected executor death bumps it; a
	// completion carrying an older epoch is a zombie's and is dropped at
	// the origin. 0 on the first shipment.
	FlowEpoch uint32
	Origin    string
	Pipe      uint64 // the pipeline's id (pipeID)
	Stage     int
	Key       uint64 // the flow's routing key (stage keys re-derive from the value)
	Deadline  int64  // unix nanoseconds; 0 = none
	Priority  int
}

// completeMsg resolves a forwarded flow at its origin
// ("cluster.complete"). The final value (nil unless StatusOK) travels
// after the fixed fields (encodeComplete).
type completeMsg struct {
	Flow      uint64
	FlowEpoch uint32 // echoed from the stage parcel; the origin's staleness gate
	Status    uint8
	Err       string
}

// fetchMsg requests a percolation transfer ("cluster.fetch"): one
// global object, or the tenant's code image when Object is empty.
type fetchMsg struct {
	Tenant string
	Object string
}

// traceMsg asks a peer for its recorded events of one flow
// ("cluster.trace").
type traceMsg struct {
	Origin string
	Flow   uint64
}

// encode lays out one control message. Control messages hold only
// kinds the walker lays out (TestControlMessagesRoundTrip checks every
// type), so w.err stays nil.
func encode(v any) []byte {
	var w writer
	w.put(reflect.ValueOf(v))
	return w.b
}

// decode parses a control message body, which the message must fill
// exactly.
func decode[T any](b []byte) (T, error) {
	var v T
	r := reader{b: b}
	r.get(reflect.ValueOf(&v).Elem())
	r.bad = r.bad || len(r.b) != 0
	return v, r.err(reflect.TypeFor[T]().String())
}

// encodeStage lays out one stage parcel carrying input v in a new body.
func encodeStage(sp *stageMsg, v any) ([]byte, error) { return encodeStageIn(nil, sp, v) }

// encodeStageIn lays out one stage parcel carrying input v, re-headed
// into room's body when v still sits behind room and the fixed fields
// fit it exactly: the value does not move, so a failed send leaves it
// intact for the stage to run here. The only failure is a value the
// codec cannot carry.
func encodeStageIn(room []byte, sp *stageMsg, v any) ([]byte, error) {
	b := reuse(room, v, 7*8+strSize(sp.Origin)+valueSize(v), false)
	for _, u := range [...]uint64{sp.Flow, uint64(sp.FlowEpoch), uint64(sp.Stage), sp.Key, uint64(sp.Deadline), uint64(sp.Priority), sp.Pipe} {
		b = appendU64(b, u)
	}
	return appendValue(appendString(b, sp.Origin), v)
}

// decodeStage parses a stage parcel's fixed fields and returns the
// encoded input that follows them (decodeValue).
func decodeStage(b []byte) (stageMsg, []byte, error) {
	r := reader{b: b}
	sp := stageMsg{
		Flow:      r.u64(),
		FlowEpoch: uint32(r.u64()),
		Stage:     r.int(),
		Key:       r.u64(),
		Deadline:  int64(r.u64()),
		Priority:  r.int(),
		Pipe:      r.u64(),
		Origin:    r.str(),
	}
	return sp, r.b, r.err("stage parcel")
}

// encodeComplete lays out one completion parcel carrying value v in a
// new body.
func encodeComplete(cm *completeMsg, v any) ([]byte, error) { return encodeCompleteIn(nil, cm, v) }

// encodeCompleteIn lays out one completion parcel carrying value v,
// re-headed into room's body when v still sits behind room: the shorter
// fields go at the array's start, so the body keeps its whole capacity
// for the transport to reuse, and the value moves down behind them.
func encodeCompleteIn(room []byte, cm *completeMsg, v any) ([]byte, error) {
	b := reuse(room, v, 2*8+1+strSize(cm.Err)+valueSize(v), true)
	b = appendU64(appendU64(b, cm.Flow), uint64(cm.FlowEpoch))
	return appendValue(appendString(append(b, cm.Status), cm.Err), v)
}

// decodeComplete parses a completion parcel's fixed fields and returns
// the encoded value that follows them (decodeValue).
func decodeComplete(b []byte) (completeMsg, []byte, error) {
	r := reader{b: b}
	cm := completeMsg{Flow: r.u64(), FlowEpoch: uint32(r.u64()), Status: r.take(1)[0], Err: r.str()}
	return cm, r.b, r.err("completion parcel")
}

// Value tags. Bool and the integer and float types are tagged by
// their reflect.Kind (1 to 14); the other tags follow.
const (
	tagNil    byte = 0
	tagString byte = 16 + iota
	tagBytes
	tagInts
	tagStrings
	tagFloats
	tagMapInt
	tagMapString
	tagAnys
	tagMapAny
)

// valueTypes are the composite tags' types, laid out by the walker.
var valueTypes = [...]reflect.Type{
	tagInts:      reflect.TypeFor[[]int](),
	tagStrings:   reflect.TypeFor[[]string](),
	tagFloats:    reflect.TypeFor[[]float64](),
	tagMapInt:    reflect.TypeFor[map[string]int](),
	tagMapString: reflect.TypeFor[map[string]string](),
	tagAnys:      reflect.TypeFor[[]any](),
	tagMapAny:    reflect.TypeFor[map[string]any](),
}

// appendValue appends v's tagged encoding to b. A []byte is copied.
func appendValue(b []byte, v any) ([]byte, error) {
	w := writer{b: b}
	w.value(v)
	return w.b, w.err
}

// writer appends encodings to b. A value that cannot cross the wire
// sets err, and the bytes are then garbage.
type writer struct {
	b     []byte
	err   error
	depth int // the []any and map[string]any elements open around b's end
}

// value appends v as a tagged value.
func (w *writer) value(v any) {
	switch x := v.(type) {
	case nil:
		w.b = append(w.b, tagNil)
	case bool, int, int8, int16, int32, int64, uint, uint8, uint16, uint32, uint64, float32, float64:
		rv := reflect.ValueOf(x)
		w.b = appendU64(append(w.b, byte(rv.Kind())), scalarBits(rv))
	case string:
		w.b = appendString(append(w.b, tagString), x)
	case []byte:
		w.b = appendCount(append(w.b, tagBytes), x == nil, len(x))
		if behind(w.b, x) { // already in place in a re-headed body (reuse)
			w.b = w.b[:len(w.b)+len(x)]
		} else {
			w.b = append(w.b, x...)
		}
	default:
		rv := reflect.ValueOf(v)
		switch tag := slices.Index(valueTypes[:], rv.Type()); {
		case tag < 0:
			w.err = fmt.Errorf("cluster: a %T cannot cross the wire", v)
		case w.depth > maxDepth:
			w.err = fmt.Errorf("cluster: value nests deeper than %d", maxDepth)
		default:
			w.b = append(w.b, byte(tag))
			w.put(rv)
		}
	}
}

// put appends rv laid out by its kind.
func (w *writer) put(rv reflect.Value) {
	switch rv.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Float32, reflect.Float64:
		w.b = appendU64(w.b, scalarBits(rv))
	case reflect.String:
		w.b = appendString(w.b, rv.String())
	case reflect.Interface:
		w.depth++
		w.value(rv.Interface())
		w.depth--
	case reflect.Slice:
		w.b = appendCount(w.b, rv.IsNil(), rv.Len())
		for i := range rv.Len() {
			w.put(rv.Index(i))
		}
	case reflect.Map:
		w.b = appendCount(w.b, rv.IsNil(), rv.Len())
		for it := rv.MapRange(); it.Next(); {
			w.put(it.Key())
			w.put(it.Value())
		}
	case reflect.Struct:
		for i := range rv.NumField() {
			w.put(rv.Field(i))
		}
	default:
		w.err = fmt.Errorf("cluster: a %s cannot cross the wire", rv.Type())
	}
}

// newBody returns an empty parcel body with room for size bytes, in one
// allocation whose whole size class is its capacity. Send hands that
// capacity over too, and a transport that reuses written bodies as
// receive buffers (netparcel) then fits a slightly longer arriving
// body — a stage parcel where a completion parcel left — into it.
func newBody(size int) []byte { return slices.Grow([]byte(nil), size) }

// reuse returns the empty body a size-byte message carrying v is
// encoded into: room's array when v is a []byte that starts right
// behind room in it and the message's fields fit room — exactly, or
// when shrink is set also with bytes to spare, the value then moving
// down behind them — else a new body.
func reuse(room []byte, v any, size int, shrink bool) []byte {
	if x, ok := v.([]byte); ok && behind(room, x) {
		if head := size - len(x); head == len(room) || shrink && head < len(room) {
			return room[:0]
		}
	}
	return newBody(size)
}

// behind reports whether x is non-empty and starts right behind b, in
// b's array.
func behind(b, x []byte) bool {
	return len(x) > 0 && cap(b) > len(b) && &b[:len(b)+1][len(b)] == &x[0]
}

// valueSize is the size of v's encoding, so a message is allocated
// once: exact for nil, a scalar, a []byte or a string, and for any
// other value a start that appending grows.
func valueSize(v any) int {
	switch x := v.(type) {
	case nil:
		return 1
	case []byte:
		return 1 + uvarintSize(uint64(len(x))+1) + len(x)
	case string:
		return 1 + strSize(x)
	}
	return 9
}

// strSize is the size of a string's encoding.
func strSize(s string) int { return uvarintSize(uint64(len(s))) + len(s) }

func uvarintSize(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// scalarBits is the 8-byte payload of a bool, integer or float:
// integers sign- or zero-extended, floats as float64 IEEE bits.
func scalarBits(rv reflect.Value) uint64 {
	switch {
	case rv.CanInt():
		return uint64(rv.Int())
	case rv.CanUint():
		return rv.Uint()
	case rv.CanFloat():
		return math.Float64bits(rv.Float())
	case rv.Bool():
		return 1
	}
	return 0
}

// decodeValue parses one tagged value, which must fill b exactly. A
// decoded []byte aliases b.
func decodeValue(b []byte) (any, error) {
	r := reader{b: b}
	v := r.value()
	r.bad = r.bad || len(r.b) != 0
	return v, r.err("value")
}

func appendU64(b []byte, u uint64) []byte { return binary.LittleEndian.AppendUint64(b, u) }

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendCount writes a slice or map header: n+1, or 0 for a nil slice
// or map.
func appendCount(b []byte, isNil bool, n int) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

// reader consumes a parcel body. The first short or malformed read
// marks it bad; later reads return zero values, and err reports it.
type reader struct {
	b     []byte
	bad   bool
	depth int // the []any and map[string]any elements open around the read
}

func (r *reader) err(what string) error {
	if r.bad {
		return errors.New("cluster: malformed " + what)
	}
	return nil
}

// zeros backs the reads of a bad reader.
var zeros [8]byte

// take returns the next n bytes (capacity clipped, so appending to them
// cannot overwrite what follows). Past the end of the body it marks the
// reader bad and returns n zero bytes; n is at most 8 there, because
// every longer read is first checked against the body (uvarint, count).
func (r *reader) take(n int) []byte {
	if r.bad || n > len(r.b) {
		r.bad = true
		return zeros[:n:n]
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }

func (r *reader) int() int { return int(r.u64()) }

func (r *reader) float() float64 { return math.Float64frombits(r.u64()) }

// uvarint reads a count of bytes or elements still to come, so it can
// exceed what is left of the body by at most slack.
func (r *reader) uvarint(slack int) int {
	n, k := binary.Uvarint(r.b)
	if r.bad || k <= 0 || n > uint64(len(r.b)-k+slack) {
		r.bad = true
		return 0
	}
	r.b = r.b[k:]
	return int(n)
}

func (r *reader) str() string { return string(r.take(r.uvarint(0))) }

// count reads a slice or map header: the element count, which is at
// most the bytes left, or -1 for nil (or a bad reader).
func (r *reader) count() int { return r.uvarint(1) - 1 }

// decoders parses the payloads of the tags that have one of their own.
var decoders = [...]func(*reader) any{
	tagNil:          func(*reader) any { return nil },
	reflect.Bool:    func(r *reader) any { return r.u64() != 0 },
	reflect.Int:     func(r *reader) any { return r.int() },
	reflect.Int8:    func(r *reader) any { return int8(r.u64()) },
	reflect.Int16:   func(r *reader) any { return int16(r.u64()) },
	reflect.Int32:   func(r *reader) any { return int32(r.u64()) },
	reflect.Int64:   func(r *reader) any { return int64(r.u64()) },
	reflect.Uint:    func(r *reader) any { return uint(r.u64()) },
	reflect.Uint8:   func(r *reader) any { return uint8(r.u64()) },
	reflect.Uint16:  func(r *reader) any { return uint16(r.u64()) },
	reflect.Uint32:  func(r *reader) any { return uint32(r.u64()) },
	reflect.Uint64:  func(r *reader) any { return r.u64() },
	reflect.Float32: func(r *reader) any { return float32(r.float()) },
	reflect.Float64: func(r *reader) any { return r.float() },
	tagString:       func(r *reader) any { return r.str() },
	tagBytes:        (*reader).bytes,
}

// value reads one tagged value.
func (r *reader) value() any {
	tag := int(r.take(1)[0])
	if tag < len(decoders) && decoders[tag] != nil {
		return decoders[tag](r)
	}
	if tag < len(valueTypes) && valueTypes[tag] != nil && r.depth <= maxDepth {
		rv := reflect.New(valueTypes[tag]).Elem()
		r.get(rv)
		return rv.Interface()
	}
	r.bad = true
	return nil
}

// bytes reads a []byte, aliasing the body.
func (r *reader) bytes() any {
	if n := r.count(); n >= 0 {
		return r.take(n)
	}
	return []byte(nil)
}

// get fills rv, which must be settable, laid out by its kind. Slices
// and maps grow one element at a time and stop at the first bad read,
// so a forged count costs no more than the body it came in.
func (r *reader) get(rv reflect.Value) {
	switch rv.Kind() {
	case reflect.Bool:
		rv.SetBool(r.u64() != 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		rv.SetInt(int64(r.u64()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		rv.SetUint(r.u64())
	case reflect.Float32, reflect.Float64:
		rv.SetFloat(r.float())
	case reflect.String:
		rv.SetString(r.str())
	case reflect.Interface:
		r.depth++
		if v := r.value(); v != nil {
			rv.Set(reflect.ValueOf(v))
		}
		r.depth--
	case reflect.Slice:
		n := r.count()
		if n >= 0 {
			rv.Set(reflect.MakeSlice(rv.Type(), 0, 0))
		}
		for i := 0; i < n && !r.bad; i++ {
			rv.Set(reflect.Append(rv, reflect.Zero(rv.Type().Elem())))
			r.get(rv.Index(i))
		}
	case reflect.Map:
		n := r.count()
		if n >= 0 {
			rv.Set(reflect.MakeMap(rv.Type()))
		}
		for i := 0; i < n && !r.bad; i++ {
			k, e := reflect.New(rv.Type().Key()).Elem(), reflect.New(rv.Type().Elem()).Elem()
			r.get(k)
			r.get(e)
			rv.SetMapIndex(k, e)
		}
	case reflect.Struct:
		for i := range rv.NumField() {
			r.get(rv.Field(i))
		}
	default:
		r.bad = true
	}
}
