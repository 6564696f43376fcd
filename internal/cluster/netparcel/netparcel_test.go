package netparcel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/parcel"
)

func newPair(t *testing.T) (*Transport, *Transport) {
	t.Helper()
	a, err := Listen("a", "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("listen a: %v", err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := Listen("b", "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("listen b: %v", err)
	}
	t.Cleanup(func() { b.Close() })
	id, err := a.Dial(b.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if id != "b" {
		t.Fatalf("dial resolved %s, want b", id)
	}
	// Dial returns once b's hello is read; b registers a just after, on
	// its accept goroutine. Wait for it, so b can send to a at once.
	for deadline := time.Now().Add(5 * time.Second); len(b.Peers()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("b never registered a")
		}
	}
	return a, b
}

func TestCallRoundtrip(t *testing.T) {
	a, b := newPair(t)
	b.Handle("echo", func(from parcel.NodeID, body []byte) ([]byte, error) {
		if from != "a" {
			t.Errorf("from = %s, want a", from)
		}
		return append([]byte("re:"), body...), nil
	})
	reply, err := a.Call("b", "echo", []byte("over tcp"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(reply) != "re:over tcp" {
		t.Errorf("reply = %q", reply)
	}
	// The hello registered a back-route: the callee can call the dialer.
	a.Handle("ping", func(parcel.NodeID, []byte) ([]byte, error) { return []byte("pong"), nil })
	reply, err = b.Call("a", "ping", nil)
	if err != nil || string(reply) != "pong" {
		t.Fatalf("reverse Call = %q, %v; want pong", reply, err)
	}
}

func TestSendDelivery(t *testing.T) {
	a, b := newPair(t)
	const msgs = 100
	var wg sync.WaitGroup
	wg.Add(msgs)
	var got atomic.Int64
	b.Handle("tick", func(_ parcel.NodeID, body []byte) ([]byte, error) {
		got.Add(int64(len(body)))
		wg.Done()
		return nil, nil
	})
	for i := 0; i < msgs; i++ {
		if err := a.Send("b", "tick", make([]byte, 8)); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("delivered %d/800 bytes before timeout", got.Load())
	}
	if got.Load() != msgs*8 {
		t.Errorf("received %d bytes, want %d", got.Load(), msgs*8)
	}
}

func TestCallHandlerError(t *testing.T) {
	a, b := newPair(t)
	b.Handle("fail", func(parcel.NodeID, []byte) ([]byte, error) {
		return nil, errors.New("deliberate")
	})
	_, err := a.Call("b", "fail", nil)
	if err == nil || !strings.Contains(err.Error(), "deliberate") {
		t.Errorf("err = %v, want handler error text", err)
	}
}

func TestCallUnknownMethod(t *testing.T) {
	a, _ := newPair(t)
	_, err := a.Call("b", "no.such.method", nil)
	if err == nil || !strings.Contains(err.Error(), "no.such.method") {
		t.Errorf("err = %v, want unknown-method error naming the method", err)
	}
}

func TestCallUnknownPeer(t *testing.T) {
	a, _ := newPair(t)
	if _, err := a.Call("ghost", "x", nil); !errors.Is(err, parcel.ErrUnknownPeer) {
		t.Errorf("err = %v, want ErrUnknownPeer", err)
	}
}

func TestConcurrentCallsUnderWindow(t *testing.T) {
	a, b := newPair(t)
	b.Handle("mul", func(_ parcel.NodeID, body []byte) ([]byte, error) {
		out := make([]byte, len(body))
		for i, c := range body {
			out[i] = c * 2
		}
		return out, nil
	})
	const calls = 200
	var wg sync.WaitGroup
	wg.Add(calls)
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func(i int) {
			defer wg.Done()
			reply, err := a.Call("b", "mul", []byte{byte(i)})
			if err != nil {
				errs <- err
				return
			}
			if len(reply) != 1 || reply[0] != byte(i)*2 {
				errs <- errors.New("wrong reply")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent call: %v", err)
	}
}

func TestStatsCountWire(t *testing.T) {
	a, b := newPair(t)
	b.Handle("echo", func(_ parcel.NodeID, body []byte) ([]byte, error) { return body, nil })
	if _, err := a.Call("b", "echo", make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	as, bs := a.Stats(), b.Stats()
	if as.ParcelsSent == 0 {
		t.Errorf("a stats = %+v", as)
	}
	// Length-prefixed frames: the wire carries at least the payload.
	if as.BytesSent < 1024 || as.BytesRecv < 1024 {
		t.Errorf("a bytes sent/recv = %d/%d, want ≥1024 each", as.BytesSent, as.BytesRecv)
	}
	if bs.BytesRecv < 1024 || bs.BytesSent < 1024 {
		t.Errorf("b bytes recv/sent = %d/%d, want ≥1024 each", bs.BytesRecv, bs.BytesSent)
	}
}

func TestLargeBody(t *testing.T) {
	a, b := newPair(t)
	b.Handle("echo", func(_ parcel.NodeID, body []byte) ([]byte, error) { return body, nil })
	body := make([]byte, 1<<20)
	for i := range body {
		body[i] = byte(i)
	}
	reply, err := a.Call("b", "echo", body)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if len(reply) != len(body) {
		t.Fatalf("reply length %d, want %d", len(reply), len(body))
	}
	for i := range reply {
		if reply[i] != body[i] {
			t.Fatalf("reply corrupt at byte %d", i)
		}
	}
}

func TestCloseUnblocksCallers(t *testing.T) {
	a, b := newPair(t)
	release := make(chan struct{})
	b.Handle("stall", func(parcel.NodeID, []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	errc := make(chan error, 1)
	go func() {
		_, err := a.Call("b", "stall", nil)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the call reach b
	a.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("in-flight call succeeded across Close, want error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("caller still blocked after Close")
	}
	close(release)
	if err := a.Send("b", "x", nil); !errors.Is(err, parcel.ErrTransportClosed) {
		t.Errorf("send after close: %v, want ErrTransportClosed", err)
	}
}

func TestHandlerPoolBoundsGoroutinesUnderBurst(t *testing.T) {
	// The caller's window (default 256) admits far more calls than the
	// callee's pool (8) may run at once.
	const window = 8
	a, err := Listen("pa", "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("listen a: %v", err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := Listen("pb", "127.0.0.1:0", Config{Window: window})
	if err != nil {
		t.Fatalf("listen b: %v", err)
	}
	t.Cleanup(func() { b.Close() })
	if _, err := a.Dial(b.Addr()); err != nil {
		t.Fatalf("dial: %v", err)
	}

	// The handler parks until released, so every queued call that got a
	// worker is visibly "in handler" at once — the pool bound is the max
	// of that gauge.
	const burst = 200
	var inHandler, maxInHandler atomic.Int64
	release := make(chan struct{})
	b.Handle("burst", func(parcel.NodeID, []byte) ([]byte, error) {
		cur := inHandler.Add(1)
		for {
			prev := maxInHandler.Load()
			if cur <= prev || maxInHandler.CompareAndSwap(prev, cur) {
				break
			}
		}
		<-release
		inHandler.Add(-1)
		return nil, nil
	})
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		go func() {
			_, err := a.Call("pb", "burst", []byte{1})
			errs <- err
		}()
	}
	// Let the burst land and the pool saturate.
	deadline := time.Now().Add(5 * time.Second)
	for inHandler.Load() < window {
		if time.Now().After(deadline) {
			t.Fatalf("pool reached %d concurrent handlers, want %d", inHandler.Load(), window)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // give an unbounded bug time to blow past the window
	if got := maxInHandler.Load(); got > window {
		t.Fatalf("burst ran %d handlers concurrently, want <= %d (Config.Window)", got, window)
	}
	close(release)
	timeout := time.After(10 * time.Second)
	for i := 0; i < burst; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("burst call: %v", err)
			}
		case <-timeout:
			t.Fatalf("only %d/%d burst calls returned after release", i, burst)
		}
	}
	if got := maxInHandler.Load(); got > window {
		t.Fatalf("pool exceeded its bound after release: %d > %d", got, window)
	}
}

func TestHandlerPoolStillAnswersCallsWhileSaturated(t *testing.T) {
	// With every pool worker parked in a blocked call handler, a Call from
	// the saturated side must still complete: replies resolve inline on
	// the read loop, never through the pool.
	a, b := newPair(t) // default window
	block := make(chan struct{})
	defer close(block)
	var parked atomic.Int64
	b.Handle("park", func(parcel.NodeID, []byte) ([]byte, error) { parked.Add(1); <-block; return nil, nil })
	a.Handle("echo", func(_ parcel.NodeID, body []byte) ([]byte, error) { return body, nil })
	for i := 0; i < 256; i++ { // default Window
		go a.Call("b", "park", nil)
	}
	deadline := time.Now().Add(5 * time.Second)
	for parked.Load() < 256 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/256 pool workers parked", parked.Load())
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan error, 1)
	go func() {
		reply, err := b.Call("a", "echo", []byte("hi"))
		if err == nil && string(reply) != "hi" {
			err = errors.New("bad echo: " + string(reply))
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("call while saturated: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("call from saturated node never completed — reply stuck behind the pool")
	}
}

// TestSendsArriveInOrder sends one-way frames from one goroutine over
// one connection: they are delivered in send order.
func TestSendsArriveInOrder(t *testing.T) {
	a, b := newPair(t)
	const n = 10000
	var next uint32
	done := make(chan error, 1)
	b.Handle("seq", func(_ parcel.NodeID, body []byte) ([]byte, error) {
		if got := binary.LittleEndian.Uint32(body); got != next {
			done <- fmt.Errorf("frame %d delivered where %d was due", got, next)
		} else if next++; next == n {
			done <- nil
		}
		return nil, nil
	})
	for i := uint32(0); i < n; i++ {
		if err := a.Send("b", "seq", binary.LittleEndian.AppendUint32(nil, i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("not every frame arrived")
	}
}

// TestInlineEchoStormCompletes bounces 16 KiB bodies between two
// transports whose one-way handlers re-Send what they receive, from the
// read loop, with 512 bodies in flight from each side — far more than
// the loopback socket buffers hold. A read loop that flushed its own
// sends would block writing into a full socket while its peer's read
// loop did the same, and the storm would stop.
func TestInlineEchoStormCompletes(t *testing.T) {
	a, b := newPair(t)
	const (
		inFlight = 512
		bounces  = 20
		size     = 16 << 10
	)
	var landed, finished atomic.Int64
	bounce := func(self *Transport, back parcel.NodeID) parcel.TransportHandler {
		return func(_ parcel.NodeID, body []byte) ([]byte, error) {
			landed.Add(1)
			if body[0]++; body[0] == bounces {
				finished.Add(1)
				return nil, nil
			}
			if err := self.Send(back, "bounce", body); err != nil {
				t.Errorf("re-send: %v", err)
			}
			return nil, nil
		}
	}
	a.Handle("bounce", bounce(a, "b"))
	b.Handle("bounce", bounce(b, "a"))
	for i := 0; i < inFlight; i++ {
		if err := a.Send("b", "bounce", make([]byte, size)); err != nil {
			t.Fatalf("send a->b %d: %v", i, err)
		}
		if err := b.Send("a", "bounce", make([]byte, size)); err != nil {
			t.Fatalf("send b->a %d: %v", i, err)
		}
	}
	// Every bounce must land within 10 s of the one before it.
	last, stalled := landed.Load(), time.Now()
	for finished.Load() < 2*inFlight {
		if now := landed.Load(); now != last {
			last, stalled = now, time.Now()
		} else if time.Since(stalled) > 10*time.Second {
			t.Fatalf("storm stalled: %d/%d bounces landed, %d/%d bodies finished",
				now, 2*inFlight*bounces, finished.Load(), 2*inFlight)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestInjectedPartitionFailsTraffic(t *testing.T) {
	ta, b := newPair(t)
	b.Handle("m", func(parcel.NodeID, []byte) ([]byte, error) { return []byte("ok"), nil })
	fl := parcel.NewFaults(5)
	a := fl.Wrap(ta)
	fl.Partition("a", "b")
	if _, err := a.Call("b", "m", nil); !errors.Is(err, parcel.ErrUnknownPeer) {
		t.Fatalf("call across injected partition: %v, want ErrUnknownPeer family", err)
	}
	if err := a.Send("b", "m", nil); !errors.Is(err, parcel.ErrPartitioned) {
		t.Fatalf("send across injected partition: %v, want ErrPartitioned", err)
	}
	fl.Heal("a", "b")
	if reply, err := a.Call("b", "m", nil); err != nil || string(reply) != "ok" {
		t.Fatalf("call after heal = %q, %v", reply, err)
	}
}

// TestFaultsSameOnBothTransports runs each injected fault through
// Faults.Wrap on a fabric pair and on a loopback TCP pair: Send and Call
// fail with the same error class on both, the handler sees the same
// deliveries, and undoing the fault lets traffic flow again. A sentinel
// Send after the undo proves that dropped Sends never arrived: one
// connection delivers Sends in order, so they would have landed first.
func TestFaultsSameOnBothTransports(t *testing.T) {
	type outcome struct {
		send, call string // error class
		delivered  int64  // handler runs, the Call's included
	}
	partitioned := outcome{send: "partitioned", call: "partitioned", delivered: 0}
	faults := []struct {
		name         string
		inject, undo func(*parcel.Faults)
		want         outcome
	}{
		{"partition", func(f *parcel.Faults) { f.Partition("a", "b") }, func(f *parcel.Faults) { f.Heal("a", "b") }, partitioned},
		{"crash-receiver", func(f *parcel.Faults) { f.Crash("b") }, func(f *parcel.Faults) { f.Revive("b") }, partitioned},
		{"crash-sender", func(f *parcel.Faults) { f.Crash("a") }, func(f *parcel.Faults) { f.Revive("a") }, partitioned},
		{"drop", func(f *parcel.Faults) { f.SetDrop(1) }, func(f *parcel.Faults) { f.SetDrop(0) }, outcome{send: "nil", call: "nil", delivered: 1}},
	}
	pairs := []struct {
		name string
		pair func(t *testing.T) (a, b parcel.Transport)
	}{
		{"fabric", func(*testing.T) (parcel.Transport, parcel.Transport) {
			f := parcel.NewFabric()
			return f.Node("a"), f.Node("b")
		}},
		{"tcp", func(t *testing.T) (parcel.Transport, parcel.Transport) { return newPair(t) }},
	}
	class := func(err error) string {
		switch {
		case err == nil:
			return "nil"
		case errors.Is(err, parcel.ErrPartitioned):
			return "partitioned"
		case errors.Is(err, parcel.ErrUnknownPeer):
			return "unknown-peer"
		}
		return err.Error()
	}
	const sends = 5
	for _, fault := range faults {
		for _, pair := range pairs {
			t.Run(fault.name+"/"+pair.name, func(t *testing.T) {
				ta, b := pair.pair(t)
				fl := parcel.NewFaults(1)
				a := fl.Wrap(ta)
				var delivered atomic.Int64
				b.Handle("m", func(parcel.NodeID, []byte) ([]byte, error) { delivered.Add(1); return []byte("ok"), nil })
				sentinel := make(chan struct{}, 1)
				b.Handle("sentinel", func(parcel.NodeID, []byte) ([]byte, error) { sentinel <- struct{}{}; return nil, nil })

				fault.inject(fl)
				var got outcome
				for i := 0; i < sends; i++ {
					err := a.Send("b", "m", []byte{byte(i)})
					if i == 0 {
						got.send = class(err)
					} else if class(err) != got.send {
						t.Fatalf("send %d: %v, send 0 read %s", i, err, got.send)
					}
				}
				_, err := a.Call("b", "m", nil)
				got.call = class(err)
				fault.undo(fl)

				if err := a.Send("b", "sentinel", nil); err != nil {
					t.Fatalf("sentinel send after undo: %v", err)
				}
				select {
				case <-sentinel:
				case <-time.After(10 * time.Second):
					t.Fatal("the sentinel never arrived after the fault was undone")
				}
				got.delivered = delivered.Load()
				if got != fault.want {
					t.Fatalf("outcome %+v, want %+v", got, fault.want)
				}
				if reply, err := a.Call("b", "m", nil); err != nil || string(reply) != "ok" {
					t.Fatalf("call after undo = %q, %v", reply, err)
				}
			})
		}
	}
}

// pattern is body i from side s: its index, then bytes no other body
// repeats at the same offsets.
func pattern(s byte, i, size int) []byte {
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, size), uint32(i))
	for j := len(b); j < size; j++ {
		b = append(b, byte(j*int(s+1)+i))
	}
	return b
}

// TestTwoWaySendStressKeepsBodies has both peers Send hundreds of
// 16 KiB bodies at once, so each side's reads draw on the bodies its
// own sends gave up. Every body must arrive as sent, and every tenth,
// kept by its handler, must still be intact once the storm is over: a
// recycled buffer is never one a handler was given.
func TestTwoWaySendStressKeepsBodies(t *testing.T) {
	a, b := newPair(t)
	const (
		n    = 400
		size = 16 << 10
	)
	type keep struct {
		from byte
		i    int
		body []byte
	}
	var mu sync.Mutex
	var kept []keep
	var bad atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2 * n)
	check := func(from byte) parcel.TransportHandler {
		return func(_ parcel.NodeID, body []byte) ([]byte, error) {
			i := int(binary.LittleEndian.Uint32(body))
			if !bytes.Equal(body, pattern(from, i, size)) {
				bad.Add(1)
			}
			if i%10 == 0 {
				mu.Lock()
				kept = append(kept, keep{from, i, body})
				mu.Unlock()
			}
			wg.Done()
			return nil, nil
		}
	}
	a.Handle("p", check('b'))
	b.Handle("p", check('a'))
	for _, s := range []struct {
		tr         *Transport
		dest       parcel.NodeID
		self, half byte
	}{{a, "b", 'a', 0}, {a, "b", 'a', 1}, {b, "a", 'b', 0}, {b, "a", 'b', 1}} {
		go func() {
			for i := int(s.half); i < n; i += 2 {
				if err := s.tr.Send(s.dest, "p", pattern(s.self, i, size)); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("not every body arrived")
	}
	if bad.Load() > 0 {
		t.Fatalf("%d bodies arrived corrupt", bad.Load())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(kept) != 2*n/10 {
		t.Fatalf("kept %d bodies, want %d", len(kept), 2*n/10)
	}
	for _, k := range kept {
		if !bytes.Equal(k.body, pattern(k.from, k.i, size)) {
			t.Fatalf("kept body %d from %c was overwritten after delivery", k.i, k.from)
		}
	}
}

// TestCallAndReplyBodiesNotRecycled calls with one shared body and
// answers every call with one shared reply — a code image, say — while
// one-way 16 KiB traffic keeps both free lists busy. Neither shared
// slice may be recycled: both must stay intact, and neither may sit on
// a free list.
func TestCallAndReplyBodiesNotRecycled(t *testing.T) {
	a, b := newPair(t)
	const size = 16 << 10
	img, req := pattern('i', 1, size), pattern('r', 2, size)
	imgWant, reqWant := bytes.Clone(img), bytes.Clone(req)
	b.Handle("image", func(_ parcel.NodeID, body []byte) ([]byte, error) {
		if !bytes.Equal(body, reqWant) {
			return nil, errors.New("call body arrived corrupt")
		}
		return img, nil
	})
	var sunk sync.WaitGroup
	sink := func(parcel.NodeID, []byte) ([]byte, error) { sunk.Done(); return nil, nil }
	a.Handle("sink", sink)
	b.Handle("sink", sink)
	const sends, calls = 200, 100
	sunk.Add(2 * sends)
	go func() {
		for i := 0; i < sends; i++ {
			_ = a.Send("b", "sink", make([]byte, size))
			_ = b.Send("a", "sink", make([]byte, size))
		}
	}()
	for i := 0; i < calls; i++ {
		reply, err := a.Call("b", "image", req)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !bytes.Equal(reply, imgWant) {
			t.Fatalf("reply %d differs from the shared image", i)
		}
	}
	sunk.Wait()
	if !bytes.Equal(img, imgWant) || !bytes.Equal(req, reqWant) {
		t.Fatal("a shared call or reply body was overwritten")
	}
	for _, tr := range []*Transport{a, b} {
		tr.free.mu.Lock()
		for _, x := range tr.free.bufs {
			if &x[0] == &img[0] || &x[0] == &req[0] {
				t.Errorf("%s recycled a shared call or reply body", tr.Self())
			}
		}
		tr.free.mu.Unlock()
	}
}

// TestWrittenSendBodyBecomesReceiveBuffer follows one body: once a's
// Send of it is written it waits on a's free list, to its capacity, and
// the next 16 KiB body to arrive at a — longer than the one sent — is
// read into it.
func TestWrittenSendBodyBecomesReceiveBuffer(t *testing.T) {
	a, b := newPair(t)
	const size = 16 << 10
	body := make([]byte, size-64, size)
	first := &body[0]
	delivered := make(chan []byte, 1)
	b.Handle("m", func(parcel.NodeID, []byte) ([]byte, error) { return nil, nil })
	a.Handle("m", func(_ parcel.NodeID, p []byte) ([]byte, error) { delivered <- p; return nil, nil })
	if err := a.Send("b", "m", body); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		a.free.mu.Lock()
		n := len(a.free.bufs)
		a.free.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the written body never reached the free list")
		}
	}
	want := pattern('b', 7, size)
	if err := b.Send("a", "m", bytes.Clone(want)); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-delivered:
		if &p[0] != first || !bytes.Equal(p, want) {
			t.Fatalf("arriving body read into a fresh buffer (reused: %v) or corrupt", &p[0] == first)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("body never arrived")
	}
}
