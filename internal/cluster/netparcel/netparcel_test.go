package netparcel

import (
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
	if as.Calls != 1 || as.ParcelsSent == 0 {
		t.Errorf("a stats = %+v", as)
	}
	if bs.ParcelsRecv == 0 {
		t.Errorf("b stats = %+v, want a received parcel", bs)
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
	a, b := newPair(t)
	b.Handle("m", func(parcel.NodeID, []byte) ([]byte, error) { return []byte("ok"), nil })
	fl := parcel.NewFaults(5)
	a.InjectFaults(fl)
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
