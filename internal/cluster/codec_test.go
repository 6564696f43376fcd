package cluster

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/trace"
)

// unregisteredPayload has no tag, so it cannot cross the wire.
type unregisteredPayload struct{ N int }

// codecValues are the table test's values, each with the tag it must
// travel under; they also seed the fuzz targets.
var codecValues = []struct {
	v   any
	tag byte
}{
	{nil, tagNil},
	{int(math.MinInt64), byte(reflect.Int)},
	{int(math.MaxInt64), byte(reflect.Int)},
	{int8(math.MinInt8), byte(reflect.Int8)},
	{int16(math.MinInt16), byte(reflect.Int16)},
	{int32(math.MinInt32), byte(reflect.Int32)},
	{int64(math.MinInt64), byte(reflect.Int64)},
	{uint(math.MaxUint), byte(reflect.Uint)},
	{uint8(math.MaxUint8), byte(reflect.Uint8)},
	{uint16(math.MaxUint16), byte(reflect.Uint16)},
	{uint32(math.MaxUint32), byte(reflect.Uint32)},
	{uint64(math.MaxUint64), byte(reflect.Uint64)},
	{float32(-1.5), byte(reflect.Float32)},
	{math.NaN(), byte(reflect.Float64)},
	{math.Inf(-1), byte(reflect.Float64)},
	{math.Copysign(0, -1), byte(reflect.Float64)},
	{"", tagString},
	{"héllo, wire", tagString},
	{true, byte(reflect.Bool)},
	{false, byte(reflect.Bool)},
	{[]byte(nil), tagBytes},
	{[]byte{}, tagBytes},
	{[]byte{0, 1, 255}, tagBytes},
	{[]int(nil), tagInts},
	{[]int{math.MinInt64, 0, math.MaxInt64}, tagInts},
	{[]string(nil), tagStrings},
	{[]string{"", "a", "bc"}, tagStrings},
	{[]float64(nil), tagFloats},
	{[]float64{math.NaN(), -0.5, math.MaxFloat64}, tagFloats},
	{map[string]int(nil), tagMapInt},
	{map[string]int{"a": -1, "": math.MaxInt64}, tagMapInt},
	{map[string]string(nil), tagMapString},
	{map[string]string{}, tagMapString},
	{map[string]string{"k": "v", "": ""}, tagMapString},
	{[]any(nil), tagAnys},
	{[]any{}, tagAnys},
	{[]any{1, "x", 2.5, nil, []byte{7}, []any{int8(-1), []any(nil)}, map[string]any{"in": []string{"a"}}}, tagAnys},
	{map[string]any(nil), tagMapAny},
	{map[string]any{"n": 1, "s": "x", "b": []byte{1}, "nil": nil, "m": map[string]any{"k": uint16(9), "e": map[string]any{}}}, tagMapAny},
}

// sameValue reports whether two decoded values are the same: equal
// dynamic types and the same Go-syntax rendering, which tells nil from
// empty, -0 from 0, and treats NaN as equal to itself.
func sameValue(a, b any) bool {
	return reflect.TypeOf(a) == reflect.TypeOf(b) && fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

func TestCodecValueRoundTrip(t *testing.T) {
	for _, c := range codecValues {
		b, err := appendValue(nil, c.v)
		if err != nil {
			t.Fatalf("%#v: encode: %v", c.v, err)
		}
		if b[0] != c.tag {
			t.Errorf("%#v (%T) encoded under tag %d, want %d", c.v, c.v, b[0], c.tag)
		}
		got, err := decodeValue(b)
		if err != nil {
			t.Fatalf("%#v: decode: %v", c.v, err)
		}
		if !sameValue(got, c.v) {
			t.Errorf("round trip of %T %#v gave %T %#v", c.v, c.v, got, got)
		}
	}
}

func TestCodecCopiesBytesOnEncode(t *testing.T) {
	src := []byte{1, 2, 3}
	b, err := appendValue(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	src[0] = 9
	if got, _ := decodeValue(b); !sameValue(got, []byte{1, 2, 3}) {
		t.Fatalf("decoded %v after the source changed, want the bytes at encode time", got)
	}
}

func TestCodecMessagesRoundTrip(t *testing.T) {
	sp := stageMsg{Flow: math.MaxUint64, FlowEpoch: 7, Origin: "node-2", Pipe: pipeID("chain", "p"),
		Stage: 2, Key: 1 << 63, Deadline: -5, Priority: math.MinInt64}
	b, err := encodeStage(&sp, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	got, vb, err := decodeStage(b)
	if err != nil || got != sp {
		t.Fatalf("stage round trip = %+v, %v; want %+v", got, err, sp)
	}
	if v, err := decodeValue(vb); err != nil || !sameValue(v, []byte("payload")) {
		t.Fatalf("stage value = %#v, %v", v, err)
	}

	cm := completeMsg{Flow: 3, FlowEpoch: 1, Status: uint8(serve.StatusFailed), Err: "boom"}
	b, err = encodeComplete(&cm, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotc, vb, err := decodeComplete(b)
	if err != nil || gotc != cm {
		t.Fatalf("completion round trip = %+v, %v; want %+v", gotc, err, cm)
	}
	if v, err := decodeValue(vb); err != nil || v != nil {
		t.Fatalf("completion value = %#v, %v; want nil", v, err)
	}
}

// TestEncodeSizesBodyOnce checks that a flow parcel is allocated once,
// at its final size, for a 16 KiB []byte already boxed in an any and for
// every other value the size is exact for; and that the capacity of a
// completion carrying 16 KiB holds a stage parcel carrying the same
// value, so netparcel can read the one into the other's buffer.
func TestEncodeSizesBodyOnce(t *testing.T) {
	sp := stageMsg{Flow: 1 << 40, Origin: "node-2", Pipe: pipeID("chain", "chain"), Stage: 1, Key: 99}
	cm := completeMsg{Flow: 1 << 40, Err: "a long enough error text"}
	encoders := map[string]func(any) ([]byte, error){
		"stage":    func(v any) ([]byte, error) { return encodeStage(&sp, v) },
		"complete": func(v any) ([]byte, error) { return encodeComplete(&cm, v) },
	}
	want := 1.0
	if raceBuild {
		want = 2
	}
	for name, enc := range encoders {
		for _, v := range []any{make([]byte, 16<<10), nil, 7, 2.5, true, "", "text", []byte(nil), []byte{}, make([]byte, 200), string(make([]byte, 300))} {
			if n := testing.AllocsPerRun(20, func() { _, _ = enc(v) }); n != want {
				t.Errorf("%s with %T of %d: %v allocs, want %v", name, v, sizeOf(v), n, want)
			}
		}
	}
	big := make([]byte, 16<<10)
	stage, _ := encodeStage(&sp, big)
	done, _ := encodeComplete(&cm, big)
	if cap(done) < len(stage) {
		t.Errorf("a 16 KiB completion has capacity %d, short of the %d-byte stage parcel", cap(done), len(stage))
	}
}

func sizeOf(v any) int {
	switch x := v.(type) {
	case []byte:
		return len(x)
	case string:
		return len(x)
	}
	return 0
}

// TestCodecRejectsMalformed feeds every strict prefix of real
// encodings, trailing garbage, unknown tags and oversize counts: each
// must fail with an error, never panic.
func TestCodecRejectsMalformed(t *testing.T) {
	for _, c := range codecValues {
		b, _ := appendValue(nil, c.v)
		for i := 0; i < len(b); i++ {
			if _, err := decodeValue(b[:i]); err == nil {
				t.Errorf("%T: prefix of %d/%d bytes decoded without error", c.v, i, len(b))
			}
		}
		if _, err := decodeValue(append(b, 0)); err == nil {
			t.Errorf("%T: trailing byte accepted", c.v)
		}
	}
	for _, bad := range [][]byte{
		{tagMapAny + 1},
		{255},
		{byte(reflect.Int8), 1, 2},               // 8-byte payload cut short
		{tagBytes, 0xff, 0xff, 0xff, 0xff, 0x0f}, // count far beyond the body
		{tagInts, 3, 1, 2, 3},                    // 2 ints promised, 3 bytes given
		{tagAnys, 0xff, 0xff, 0xff, 0xff, 0x0f},  // []any count far beyond the body
		{tagMapAny, 3, 1, 'k', tagNil},           // 2 entries promised, 1 given
		{tagAnys, 2, 16},                         // an element under an unused tag
	} {
		if v, err := decodeValue(bad); err == nil {
			t.Errorf("% x decoded to %#v without error", bad, v)
		}
	}
	sb, _ := encodeStage(&stageMsg{Origin: "o", Pipe: 1}, 1)
	cb, _ := encodeComplete(&completeMsg{Err: "e"}, 1)
	for i := 0; i < len(sb)-9; i++ { // the value is the last 9 bytes
		if _, _, err := decodeStage(sb[:i]); err == nil {
			t.Errorf("stage prefix of %d/%d bytes decoded without error", i, len(sb))
		}
	}
	for i := 0; i < len(cb)-9; i++ {
		if _, _, err := decodeComplete(cb[:i]); err == nil {
			t.Errorf("completion prefix of %d/%d bytes decoded without error", i, len(cb))
		}
	}
}

// TestUnregisteredPayloadDegrades pins the codec's degrade paths on two
// fabric nodes, for a type without a tag both alone and deep inside a
// []any. A flow whose input cannot be encoded does not ship: it runs at
// its origin. A stage whose result cannot be encoded resolves the flow
// StatusFailed, naming the type.
func TestUnregisteredPayloadDegrades(t *testing.T) {
	handler := func(_ *serve.Ctx, req serve.Request) (any, error) {
		switch i := req.Payload.(type) {
		case int:
			return unregisteredPayload{N: i}, nil
		case uint8:
			return []any{1, []any{"x", unregisteredPayload{N: int(i)}}}, nil
		}
		return req.Payload, nil
	}
	_, nodes, pipes := recoveryPair(t, handler, nil)
	key := keyOwnedBy(nodes[0], pipes[0], nodes[1].Self())

	for _, in := range []any{unregisteredPayload{N: 5}, []any{"x", []any{unregisteredPayload{N: 5}}}} {
		tk, err := pipes[0].Submit(serve.Request{Key: key, Payload: in})
		if err != nil {
			t.Fatal(err)
		}
		if r := tk.Wait(); r.Status != serve.StatusOK || !reflect.DeepEqual(r.Value, in) {
			t.Fatalf("forward path resolved %v %#v (%v), want OK with the payload", r.Status, r.Value, r.Err)
		}
	}
	if fw, rs := nodes[0].Stats().ForwardedStages, nodes[1].Stats().RemoteStages; fw != 0 || rs != 0 {
		t.Fatalf("unencodable input shipped: forwarded %d, remote stages %d; want it run at the origin", fw, rs)
	}

	for i, in := range []any{5, uint8(6)} {
		tk, err := pipes[0].Submit(serve.Request{Key: key, Payload: in})
		if err != nil {
			t.Fatal(err)
		}
		r := tk.Wait()
		const want = "cluster.unregisteredPayload cannot cross the wire"
		if r.Status != serve.StatusFailed || r.Err == nil || !strings.Contains(r.Err.Error(), want) {
			t.Fatalf("result path for %T resolved %v (%v), want StatusFailed with %q", in, r.Status, r.Err, want)
		}
		if rs := nodes[1].Stats().RemoteStages; rs != int64(i+1) {
			t.Fatalf("remote stages = %d, want the %T-input stage run on the remote owner", rs, in)
		}
	}
}

// TestCodecBoundsNesting feeds about 1 MiB of nested []any headers: the
// decoder gives up with an error at maxDepth rather than recursing
// through the body. The encoder takes a value maxDepth elements deep
// and refuses one more, so it never builds a value its peer rejects.
func TestCodecBoundsNesting(t *testing.T) {
	if v, err := decodeValue(bytes.Repeat([]byte{tagAnys, 2}, 1<<19)); err == nil {
		t.Fatalf("1 MiB of nested []any headers decoded to %T without error", v)
	}
	var v any = []any{}
	for range maxDepth {
		v = []any{v}
	}
	b, err := appendValue(nil, v)
	if err != nil {
		t.Fatalf("%d deep: %v", maxDepth, err)
	}
	if got, err := decodeValue(b); err != nil || !sameValue(got, v) {
		t.Fatalf("%d deep decoded to %v, %v", maxDepth, got, err)
	}
	if _, err := appendValue(nil, map[string]any{"deeper": v}); err == nil {
		t.Fatalf("%d deep encoded without error", maxDepth+1)
	}
}

// control is one control message for the table tests: the message,
// and decode instantiated at its type.
type control struct {
	msg    any
	decode func([]byte) (any, error)
}

func ctl[T any](m T) control {
	return control{m, func(b []byte) (any, error) { return decode[T](b) }}
}

// controlMessages holds a filled value of every control message type,
// and empty ones of those with a slice or map, for
// TestControlMessagesRoundTrip and FuzzDecodeControl's corpus.
var controlMessages = []control{
	ctl(joinMsg{ID: "node-1", Addr: "127.0.0.1:7101"}),
	ctl(memberMsg{Epoch: 9, Members: map[string]string{"node-1": "127.0.0.1:7101", "node-2": ""}}),
	ctl(memberMsg{Members: map[string]string{}}),
	ctl(memberMsg{}),
	ctl(fetchMsg{Tenant: "ct", Object: "dict"}),
	ctl(fetchMsg{Tenant: "ct"}),
	ctl(traceMsg{Origin: "node-2", Flow: math.MaxUint64}),
	ctl(filled[Stats]()),
	ctl([]trace.Event{filled[trace.Event](), {}}),
	ctl([]trace.Event{}),
	ctl([]trace.Event(nil)),
}

// filled returns a T whose every integer and string field, nested
// structs included, holds a distinct non-zero value.
func filled[T any]() T {
	var v T
	n := 0
	var fill func(rv reflect.Value)
	fill = func(rv reflect.Value) {
		n++
		switch {
		case rv.Kind() == reflect.Struct:
			for i := range rv.NumField() {
				fill(rv.Field(i))
			}
		case rv.Kind() == reflect.String:
			rv.SetString(fmt.Sprint("s", n))
		case rv.CanInt():
			rv.SetInt(-int64(n))
		case rv.CanUint():
			rv.SetUint(uint64(n))
		}
	}
	fill(reflect.ValueOf(&v).Elem())
	return v
}

// TestControlMessagesRoundTrip checks every control message type
// through the walker: it round-trips exactly, and every strict prefix
// and a trailing byte are rejected. A field of a kind the walker does
// not lay out fails here.
func TestControlMessagesRoundTrip(t *testing.T) {
	for _, c := range controlMessages {
		b := encode(c.msg)
		if got, err := c.decode(b); err != nil || !reflect.DeepEqual(got, c.msg) {
			t.Errorf("%T round trip = %#v, %v; want %#v", c.msg, got, err, c.msg)
		}
		for i := range len(b) {
			if _, err := c.decode(b[:i]); err == nil {
				t.Errorf("%T: prefix of %d/%d bytes decoded without error", c.msg, i, len(b))
			}
		}
		if _, err := c.decode(append(b, 0)); err == nil {
			t.Errorf("%T: trailing byte accepted", c.msg)
		}
	}
}

// codecSeeds are real stage and completion parcels, one per table
// value, for the fuzz targets' corpora.
func codecSeeds() (stages, completes, values [][]byte) {
	for i, c := range codecValues {
		sp := stageMsg{Flow: uint64(i), FlowEpoch: uint32(i % 3), Origin: "node-2",
			Pipe: pipeID("chain", "chain"), Stage: i % 3, Key: uint64(i) * 0x9E3779B97F4A7C15, Deadline: int64(i), Priority: i % 2}
		cm := completeMsg{Flow: uint64(i), FlowEpoch: 1, Status: uint8(i % 6), Err: strings.Repeat("e", i%2)}
		sb, _ := encodeStage(&sp, c.v)
		cb, _ := encodeComplete(&cm, c.v)
		vb, _ := appendValue(nil, c.v)
		stages, completes, values = append(stages, sb), append(completes, cb), append(values, vb)
	}
	return stages, completes, values
}

// checkValueRoundTrip re-encodes a successfully decoded value and
// decodes it again: the result must be the same value.
func checkValueRoundTrip(t *testing.T, v any) {
	b, err := appendValue(nil, v)
	if err != nil {
		t.Fatalf("decoded %#v does not re-encode: %v", v, err)
	}
	v2, err := decodeValue(b)
	if err != nil {
		t.Fatalf("re-encoded %#v does not decode: %v", v, err)
	}
	if !sameValue(v, v2) {
		t.Fatalf("round trip changed %#v to %#v", v, v2)
	}
}

func FuzzDecodeValue(f *testing.F) {
	_, _, values := codecSeeds()
	for _, b := range values {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if v, err := decodeValue(b); err == nil {
			checkValueRoundTrip(t, v)
		}
	})
}

func FuzzDecodeStage(f *testing.F) {
	stages, _, _ := codecSeeds()
	for _, b := range stages {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		sp, vb, err := decodeStage(b)
		if err != nil {
			return
		}
		b2, err := encodeStage(&sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sp2, _, err := decodeStage(b2); err != nil || sp2 != sp {
			t.Fatalf("stage round trip = %+v, %v; want %+v", sp2, err, sp)
		}
		if v, err := decodeValue(vb); err == nil {
			checkValueRoundTrip(t, v)
		}
	})
}

func FuzzDecodeComplete(f *testing.F) {
	_, completes, _ := codecSeeds()
	for _, b := range completes {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		cm, vb, err := decodeComplete(b)
		if err != nil {
			return
		}
		b2, err := encodeComplete(&cm, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cm2, _, err := decodeComplete(b2); err != nil || cm2 != cm {
			t.Fatalf("completion round trip = %+v, %v; want %+v", cm2, err, cm)
		}
		if v, err := decodeValue(vb); err == nil {
			checkValueRoundTrip(t, v)
		}
	})
}

func FuzzDecodeControl(f *testing.F) {
	for _, c := range controlMessages {
		f.Add(encode(c.msg))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, c := range controlMessages {
			v, err := c.decode(b)
			if err != nil {
				continue
			}
			if v2, err := c.decode(encode(v)); err != nil || !reflect.DeepEqual(v, v2) {
				t.Fatalf("%T round trip = %#v, %v; want %#v", v, v2, err, v)
			}
		}
	})
}

// TestReheadInPlace: a flow parcel carrying the []byte that arrived in
// a stage parcel is re-headed into that parcel's body — a stage parcel
// with the value where it is, a completion at the array's start with the
// value moved down behind its shorter fields — and every value that does
// not start right behind the received fields, or that a stage parcel
// could carry only by moving it, goes into a new body and leaves the
// received one untouched.
func TestReheadInPlace(t *testing.T) {
	in := stageMsg{Flow: 9, Origin: "node-2", Pipe: pipeID("chain", "chain"), Stage: 1, Key: 5}
	out := in
	out.Stage, out.Key, out.Deadline = 2, 77, 123
	cm := completeMsg{Flow: 9, FlowEpoch: 1}
	payload := make([]byte, 300) // its length takes 2 bytes, as does 200; 100 takes 1
	for i := range payload {
		payload[i] = byte(i*7 + 1)
	}
	// arrive decodes a fresh stage parcel carrying payload, as
	// handleStage does, and returns its body, room and value.
	arrive := func() (body, room, x []byte) {
		body, _ = encodeStage(&in, payload)
		_, vb, _ := decodeStage(body)
		v, err := decodeValue(vb)
		if err != nil {
			t.Fatal(err)
		}
		x = v.([]byte)
		return body, body[:len(body)-len(x)], x
	}
	// encode lays v out as a stage or completion parcel in room and
	// checks that it decodes to out's or cm's fields and to want.
	encode := func(kind string, room []byte, v, want any) []byte {
		t.Helper()
		var b, vb []byte
		var err error
		if kind == "stage" {
			var sp stageMsg
			if b, err = encodeStageIn(room, &out, v); err == nil {
				if sp, vb, err = decodeStage(b); err == nil && sp != out {
					err = fmt.Errorf("fields %+v, want %+v", sp, out)
				}
			}
		} else {
			var got completeMsg
			if b, err = encodeCompleteIn(room, &cm, v); err == nil {
				if got, vb, err = decodeComplete(b); err == nil && got != cm {
					err = fmt.Errorf("fields %+v, want %+v", got, cm)
				}
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got, err := decodeValue(vb); err != nil || !sameValue(got, want) {
			t.Fatalf("%s: value %v, %v; want %v", kind, got, err, want)
		}
		return b
	}
	cases := []struct {
		name            string
		v               func(x []byte) any
		stage, complete bool // re-headed in place
	}{
		{"the arrived value", func(x []byte) any { return x }, true, true},
		{"shorter, same length size", func(x []byte) any { return x[:200] }, true, true},
		{"shorter, shorter length", func(x []byte) any { return x[:100] }, false, true},
		{"x[1:]", func(x []byte) any { return x[1:] }, false, false},
		{"a copy", func(x []byte) any { return bytes.Clone(x) }, false, false},
		{"another array", func(x []byte) any { return make([]byte, len(x)) }, false, false},
		{"a nil []byte", func([]byte) any { return []byte(nil) }, false, false},
		{"nil", func([]byte) any { return nil }, false, false},
		{"a string", func(x []byte) any { return string(x) }, false, false},
	}
	for _, c := range cases {
		for _, kind := range []string{"stage", "complete"} {
			body, room, x := arrive()
			orig := bytes.Clone(body)
			v, want := c.v(x), c.v(x)
			vx, isBytes := v.([]byte)
			if isBytes {
				want = bytes.Clone(vx) // vx may move
			}
			b := encode(kind, room, v, want)
			switch {
			case kind == "stage" && c.stage:
				if &b[0] != &body[0] || &b[len(b)-len(vx)] != &vx[0] {
					t.Errorf("%s, %s: not re-headed around the value in place", c.name, kind)
				}
			case kind == "complete" && c.complete:
				if &b[0] != &body[0] || cap(b) != cap(body) {
					t.Errorf("%s, %s: not re-headed at the start of the arrived body", c.name, kind)
				}
			case &b[0] == &body[0]:
				t.Errorf("%s, %s: re-headed, want a new body", c.name, kind)
			case !bytes.Equal(body, orig):
				t.Errorf("%s, %s: the arrived body was written", c.name, kind)
			}
		}
	}

	_, room, x := arrive()
	var v any = x
	if n := testing.AllocsPerRun(20, func() { _, _ = encodeStageIn(room, &out, v) }); n != 0 {
		t.Errorf("a re-headed stage parcel allocates %v times, want 0", n)
	}
}
