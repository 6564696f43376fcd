package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"math/bits"
	"reflect"
	"slices"
)

// This file is the cluster wire codec. The two flow-path parcels —
// "cluster.stage" and "cluster.complete", one of each per remote hop —
// are laid out by hand; the cold control messages (join, members,
// fetch, trace, stats) are one gob-encoded struct each (encode/decode).
//
// Integers are little-endian, 8 bytes wide; a string is a uvarint byte
// length followed by the bytes. The netparcel frame around a body is
// documented in that package.
//
//	stage:    Flow | FlowEpoch | Stage | Key | Deadline | Priority |
//	          Origin str | Tenant str | Pipe str | value
//	complete: Flow | FlowEpoch | Status u8 | Err str | value
//
// A value is one tag byte and its payload, and always ends the message:
//
//	nil                          tag only
//	bool, every integer type,    8 bytes: integers sign- or zero-extended,
//	float32, float64             floats as float64 IEEE bits, bool 0 or 1
//	string                       str
//	[]byte []int []string        uvarint n+1 (0 = nil slice), then n elements
//	[]float64                    (bytes raw, ints/floats 8 bytes, strings str)
//	map[string]int               uvarint n+1 (0 = nil map), then n key/value
//	map[string]string            pairs
//	opaque                       uvarint length, then encode(wireValue{v})
//
// Every other type (including []any and map[string]any) rides the
// opaque tag: a standalone gob stream that names the concrete type, so
// types beyond the fast tags must be announced with RegisterType on
// every node before traffic carries them. An unregistered type fails
// the encode, which the flow layer degrades to local execution (forward
// path) or a StatusFailed completion (result path) rather than wedging
// the flow. Decoding returns a value of exactly the sent dynamic type;
// a decoded []byte aliases the parcel body, which the receiving handler
// owns (see parcel.TransportHandler).

// wireValue wraps one opaque flow value for gob. A nil V encodes as the
// empty struct and decodes back to nil.
type wireValue struct {
	V any
}

// joinMsg rides "cluster.join" (the Call a joiner makes to any member)
// and "cluster.leave" (Addr unused).
type joinMsg struct {
	ID   string
	Addr string
}

// memberMsg is the membership snapshot: the join reply and the
// "cluster.members" broadcast.
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
	Tenant    string
	Pipe      string
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

// fetchMsg requests a percolation transfer: the tenant's code image
// ("cluster.fetchcode", Object empty) or one global object
// ("cluster.fetch").
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

func init() {
	// The payload types a demo or test is likely to ship. Most ride fast
	// tags; registering them keeps them encodable inside opaque values
	// ([]any, map[string]any). Anything else goes through RegisterType.
	for _, v := range []any{
		int(0), int8(0), int16(0), int32(0), int64(0),
		uint(0), uint8(0), uint16(0), uint32(0), uint64(0),
		float32(0), float64(0), "", false,
		[]any(nil), []byte(nil), []int(nil), []string(nil), []float64(nil),
		map[string]any(nil), map[string]int(nil), map[string]string(nil),
	} {
		gob.Register(v)
	}
}

// RegisterType announces a concrete payload type to the wire codec.
// Call it on every node (the same way parcel handlers register
// everywhere) before flows carry values of that type across nodes.
func RegisterType(v any) { gob.Register(v) }

// encode gobs one control message struct into a parcel body.
func encode(v any) ([]byte, error) {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// decode parses a parcel body into the given control message struct.
func decode(b []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// encodeStage lays out one stage parcel carrying input v. The only
// failure is a value the codec cannot carry.
func encodeStage(sp *stageMsg, v any) ([]byte, error) {
	b := newBody(6*8 + strSize(sp.Origin) + strSize(sp.Tenant) + strSize(sp.Pipe) + valueSize(v))
	for _, u := range [...]uint64{sp.Flow, uint64(sp.FlowEpoch), uint64(sp.Stage), sp.Key, uint64(sp.Deadline), uint64(sp.Priority)} {
		b = appendU64(b, u)
	}
	for _, s := range [...]string{sp.Origin, sp.Tenant, sp.Pipe} {
		b = appendString(b, s)
	}
	return appendValue(b, v)
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
		Origin:    r.str(),
		Tenant:    r.str(),
		Pipe:      r.str(),
	}
	return sp, r.b, r.err("stage parcel")
}

// encodeComplete lays out one completion parcel carrying value v.
func encodeComplete(cm *completeMsg, v any) ([]byte, error) {
	b := appendU64(appendU64(newBody(2*8+1+strSize(cm.Err)+valueSize(v)), cm.Flow), uint64(cm.FlowEpoch))
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
	tagOpaque
)

// appendValue appends v's tagged encoding to b. A []byte is copied.
func appendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil), nil
	case bool, int, int8, int16, int32, int64, uint, uint8, uint16, uint32, uint64, float32, float64:
		rv := reflect.ValueOf(x)
		return appendU64(append(b, byte(rv.Kind())), scalarBits(rv)), nil
	case string:
		return appendString(append(b, tagString), x), nil
	case []byte:
		return append(appendCount(b, tagBytes, x == nil, len(x)), x...), nil
	case []int:
		return appendSlice(b, tagInts, x, appendInt), nil
	case []string:
		return appendSlice(b, tagStrings, x, appendString), nil
	case []float64:
		return appendSlice(b, tagFloats, x, appendFloat), nil
	case map[string]int:
		return appendMap(b, tagMapInt, x, appendInt), nil
	case map[string]string:
		return appendMap(b, tagMapString, x, appendString), nil
	}
	g, err := encode(wireValue{V: v})
	if err != nil {
		return nil, err
	}
	return append(binary.AppendUvarint(append(b, tagOpaque), uint64(len(g))), g...), nil
}

// newBody returns an empty parcel body with room for size bytes, in one
// allocation whose whole size class is its capacity. Send hands that
// capacity over too, and a transport that reuses written bodies as
// receive buffers (netparcel) then fits a slightly longer arriving
// body — a stage parcel where a completion parcel left — into it.
func newBody(size int) []byte { return slices.Grow([]byte(nil), size) }

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
	if v := r.value(); !r.bad && len(r.b) == 0 {
		return v, nil
	}
	return nil, errors.New("cluster: malformed value")
}

func appendU64(b []byte, u uint64) []byte { return binary.LittleEndian.AppendUint64(b, u) }

func appendInt(b []byte, i int) []byte { return appendU64(b, uint64(i)) }

func appendFloat(b []byte, f float64) []byte { return appendU64(b, math.Float64bits(f)) }

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendCount writes a slice or map header: the tag, then n+1, or 0 for
// a nil slice or map.
func appendCount(b []byte, tag byte, isNil bool, n int) []byte {
	if isNil {
		return append(b, tag, 0)
	}
	return binary.AppendUvarint(append(b, tag), uint64(n)+1)
}

func appendSlice[T any](b []byte, tag byte, x []T, put func([]byte, T) []byte) []byte {
	b = appendCount(b, tag, x == nil, len(x))
	for _, e := range x {
		b = put(b, e)
	}
	return b
}

func appendMap[V any](b []byte, tag byte, x map[string]V, put func([]byte, V) []byte) []byte {
	b = appendCount(b, tag, x == nil, len(x))
	for k, e := range x {
		b = put(appendString(b, k), e)
	}
	return b
}

// reader consumes a parcel body. The first short or malformed read
// marks it bad; later reads return zero values, and err reports it.
type reader struct {
	b   []byte
	bad bool
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

// count reads a slice or map header of elements at least size bytes
// each: -1 for nil (or a bad reader), else the element count.
func (r *reader) count(size int) int {
	n := r.uvarint(1) - 1
	if n > len(r.b)/size {
		r.bad = true
	}
	if r.bad {
		return -1
	}
	return n
}

func readSlice[T any](r *reader, size int, get func(*reader) T) []T {
	n := r.count(size)
	if n < 0 {
		return nil
	}
	x := make([]T, n)
	for i := range x {
		x[i] = get(r)
	}
	return x
}

func readMap[V any](r *reader, size int, get func(*reader) V) map[string]V {
	n := r.count(size)
	if n < 0 {
		return nil
	}
	x := make(map[string]V, n)
	for i := 0; i < n; i++ {
		k := r.str()
		x[k] = get(r)
	}
	return x
}

// decoders parses each tag's payload.
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
	tagInts:         func(r *reader) any { return readSlice(r, 8, (*reader).int) },
	tagStrings:      func(r *reader) any { return readSlice(r, 1, (*reader).str) },
	tagFloats:       func(r *reader) any { return readSlice(r, 8, (*reader).float) },
	tagMapInt:       func(r *reader) any { return readMap(r, 9, (*reader).int) },
	tagMapString:    func(r *reader) any { return readMap(r, 2, (*reader).str) },
	tagOpaque:       (*reader).opaque,
}

func (r *reader) value() any {
	if tag := int(r.take(1)[0]); tag < len(decoders) && decoders[tag] != nil {
		return decoders[tag](r)
	}
	r.bad = true
	return nil
}

// bytes reads a []byte, aliasing the body.
func (r *reader) bytes() any {
	if n := r.count(1); n >= 0 {
		return r.take(n)
	}
	return []byte(nil)
}

// opaque reads a gob-encoded wireValue.
func (r *reader) opaque() any {
	var w wireValue
	if p := r.take(r.uvarint(0)); !r.bad && decode(p, &w) != nil {
		r.bad = true
	}
	return w.V
}
