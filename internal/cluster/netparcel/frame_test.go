package netparcel

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/parcel"
)

// frameSeeds are real frames of every kind, as the writer puts them on
// the wire.
func frameSeeds(t testing.TB) [][]byte {
	var out [][]byte
	for _, f := range []frame{
		{Kind: kindHello, Text: "node-2", Body: []byte("127.0.0.1:4100")},
		{Kind: kindSend, Text: "cluster.stage", Body: bytes.Repeat([]byte{7}, 72)},
		{Kind: kindSend, Text: "cluster.complete"},
		{Kind: kindCall, Seq: 1 << 40, Text: "cluster.fetch", Body: []byte{1, 2}},
		{Kind: kindReply, Seq: 300, Body: make([]byte, 512)},
		{Kind: kindReply, Seq: 2, Text: "netparcel: node b has no handler \"x\""},
	} {
		out = append(out, writeOne(t, f))
	}
	return out
}

// writeOne puts f on the wire as the connection writer does.
func writeOne(t testing.TB, f frame) []byte {
	var buf bytes.Buffer
	var g gather
	if err := g.write(&buf, []frame{f}, new(atomic.Int64)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameFrame(a, b frame) bool {
	return a.Kind == b.Kind && a.Seq == b.Seq && a.Text == b.Text && bytes.Equal(a.Body, b.Body)
}

// readOne reads one frame from b and returns the bytes it consumed.
func readOne(b []byte) (frame, int64, error) {
	var n atomic.Int64
	f, err := readFrame(bufio.NewReader(bytes.NewReader(b)), &n, new(bodyList))
	return f, n.Load(), err
}

// TestSendFrameOverhead pins the header cost of the flow path's two
// parcels: length, kind, method length and the method name.
func TestSendFrameOverhead(t *testing.T) {
	for _, method := range []string{"cluster.stage", "cluster.complete"} {
		var buf bytes.Buffer
		var g gather
		var sent atomic.Int64
		err := g.write(&buf, []frame{{Kind: kindSend, Text: method, Body: make([]byte, 100)}}, &sent)
		if n := int(sent.Load()); err != nil || n != buf.Len() {
			t.Fatalf("write = %d, %v; wrote %d bytes", n, err, buf.Len())
		}
		if over := buf.Len() - 100; over != 6+len(method) || over > 24 {
			t.Errorf("%s: %d bytes of framing, want %d (at most 24)", method, over, 6+len(method))
		}
	}
}

func TestReadFrameRejectsMalformed(t *testing.T) {
	for _, b := range frameSeeds(t) {
		for i := 0; i < len(b); i++ {
			if _, _, err := readOne(b[:i]); err == nil {
				t.Errorf("prefix of %d/%d bytes read without error", i, len(b))
			}
		}
	}
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], maxFrame+1)
	for _, b := range [][]byte{
		huge[:],               // oversize length, rejected before any allocation
		{0, 0, 0, 0},          // empty frame: no kind
		{0, 0, 0, 1, 4},       // unknown kind
		{0, 0, 0, 2, 1, 5},    // method length beyond the frame
		{0, 0, 0, 2, 2, 0x80}, // truncated seq
	} {
		if f, _, err := readOne(b); err == nil {
			t.Errorf("% x read as %+v without error", b, f)
		}
	}
}

// TestRetainedBodiesStayIntact keeps every received body without
// copying it and checks all of them once the burst is over: each frame
// is read into its own buffer, so nothing later reuses a body a handler
// holds.
func TestRetainedBodiesStayIntact(t *testing.T) {
	a, b := newPair(t)
	const n = 1000
	body := func(i int) []byte {
		p := bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 1+i%300)
		return binary.LittleEndian.AppendUint32(p, uint32(i))
	}
	var mu sync.Mutex
	kept := make(map[uint32][]byte, n)
	done := make(chan struct{})
	b.Handle("keep", func(_ parcel.NodeID, p []byte) ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		kept[binary.LittleEndian.Uint32(p[len(p)-4:])] = p
		if len(kept) == n {
			close(done)
		}
		return nil, nil
	})
	for i := 0; i < n; i++ {
		if err := a.Send("b", "keep", body(i)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("not every body arrived")
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		if !bytes.Equal(kept[uint32(i)], body(i)) {
			t.Fatalf("retained body %d changed after later frames arrived", i)
		}
	}
}

func FuzzReadFrame(f *testing.F) {
	for _, b := range frameSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := readOne(b)
		if err != nil {
			return
		}
		if n > int64(len(b)) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		fr2, _, err := readOne(writeOne(t, fr))
		if err != nil || !sameFrame(fr, fr2) {
			t.Fatalf("frame round trip = %+v, %v; want %+v", fr2, err, fr)
		}
	})
}

// TestGatheredBatchRoundTrip writes frames of every shape in one
// gathered write — a bodiless call, 16 KiB sends, a reply whose error
// text is longer than the reader's buffer — and reads them back in
// order, counting the same bytes on both sides.
func TestGatheredBatchRoundTrip(t *testing.T) {
	batch := []frame{
		{Kind: kindCall, Seq: 9, Text: "cluster.ping"},
		{Kind: kindSend, Text: "cluster.stage", Body: bytes.Repeat([]byte{1, 2, 3}, 6000)},
		{Kind: kindReply, Seq: 9, Text: string(bytes.Repeat([]byte("e"), 6000))},
		{Kind: kindSend, Text: "cluster.complete", Body: bytes.Repeat([]byte{4}, 16<<10)},
		{Kind: kindReply, Seq: 10, Body: []byte("ok")},
	}
	var buf bytes.Buffer
	var g gather
	var sent, recv atomic.Int64
	if err := g.write(&buf, batch, &sent); err != nil {
		t.Fatal(err)
	}
	if sent.Load() != int64(buf.Len()) {
		t.Fatalf("counted %d bytes sent, wrote %d", sent.Load(), buf.Len())
	}
	br := bufio.NewReader(&buf)
	for i, want := range batch {
		got, err := readFrame(br, &recv, new(bodyList))
		if err != nil || !sameFrame(got, want) {
			t.Fatalf("frame %d = %+v, %v", i, got.Text, err)
		}
	}
	if recv.Load() != sent.Load() || buf.Len() != 0 {
		t.Fatalf("read %d of %d bytes, %d left", recv.Load(), sent.Load(), buf.Len())
	}
}

// TestBodyListBounds pins the free list's rules: a body is kept to its
// capacity, small bodies are not kept, the retained total never passes
// recycleBytes (a 1 MiB body is never pinned), and a draw takes only a
// buffer of n to 2n bytes.
func TestBodyListBounds(t *testing.T) {
	var l bodyList
	l.put(make([]byte, recycleMin-1))
	l.put(make([]byte, 0, 1<<20))
	if len(l.bufs) != 0 {
		t.Fatalf("kept %d bodies, want none (too small, too large)", len(l.bufs))
	}
	for i := 0; i < 2*recycleBytes/(16<<10); i++ {
		l.put(make([]byte, 100, 16<<10))
	}
	if l.bytes > recycleBytes || l.bytes != len(l.bufs)*(16<<10) {
		t.Fatalf("retained %d bytes in %d bodies, bound %d", l.bytes, len(l.bufs), recycleBytes)
	}
	kept := len(l.bufs)
	if b := l.get(8<<10 - 1); len(l.bufs) != kept || len(b) != 8<<10-1 {
		t.Fatalf("a draw of under half a kept body's size took one")
	}
	if b := l.get(16<<10 - 100); len(l.bufs) != kept-1 || len(b) != 16<<10-100 || cap(b) != 16<<10 {
		t.Fatalf("draw = len %d cap %d, %d kept; want a kept body, with its capacity", len(b), cap(b), len(l.bufs))
	}
	if b := l.get(recycleMin - 1); len(l.bufs) != kept-1 || len(b) != recycleMin-1 {
		t.Fatal("a small draw took a kept body")
	}
}
