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
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := writeFrame(bw, &f, new(atomic.Int64)); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		out = append(out, buf.Bytes())
	}
	return out
}

func sameFrame(a, b frame) bool {
	return a.Kind == b.Kind && a.Seq == b.Seq && a.Text == b.Text && bytes.Equal(a.Body, b.Body)
}

// readOne reads one frame from b and returns the bytes it consumed.
func readOne(b []byte) (frame, int64, error) {
	var n atomic.Int64
	f, err := readFrame(bufio.NewReader(bytes.NewReader(b)), &n)
	return f, n.Load(), err
}

// TestSendFrameOverhead pins the header cost of the flow path's two
// parcels: length, kind, method length and the method name.
func TestSendFrameOverhead(t *testing.T) {
	for _, method := range []string{"cluster.stage", "cluster.complete"} {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		var sent atomic.Int64
		err := writeFrame(bw, &frame{Kind: kindSend, Text: method, Body: make([]byte, 100)}, &sent)
		bw.Flush()
		if n := int(sent.Load()); err != nil || n != buf.Len() {
			t.Fatalf("writeFrame = %d, %v; wrote %d bytes", n, err, buf.Len())
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
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := writeFrame(bw, &fr, new(atomic.Int64)); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		fr2, _, err := readOne(buf.Bytes())
		if err != nil || !sameFrame(fr, fr2) {
			t.Fatalf("frame round trip = %+v, %v; want %+v", fr2, err, fr)
		}
	})
}
