package parcel

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFabricCallRoundtrip(t *testing.T) {
	f := NewFabric()
	a, b := f.Node("a"), f.Node("b")
	b.Handle("echo", func(from NodeID, body []byte) ([]byte, error) {
		if from != "a" {
			t.Errorf("from = %s, want a", from)
		}
		return append([]byte("re:"), body...), nil
	})
	reply, err := a.Call("b", "echo", []byte("hi"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(reply) != "re:hi" {
		t.Errorf("reply = %q, want re:hi", reply)
	}
}

func TestFabricCallHandlerError(t *testing.T) {
	f := NewFabric()
	a, b := f.Node("a"), f.Node("b")
	want := errors.New("nope")
	b.Handle("fail", func(NodeID, []byte) ([]byte, error) { return nil, want })
	if _, err := a.Call("b", "fail", nil); !errors.Is(err, want) {
		t.Errorf("err = %v, want %v", err, want)
	}
}

func TestFabricSendAsync(t *testing.T) {
	f := NewFabric()
	a, b := f.Node("a"), f.Node("b")
	var wg sync.WaitGroup
	wg.Add(3)
	var got atomic.Int32
	b.Handle("tick", func(NodeID, []byte) ([]byte, error) {
		got.Add(1)
		wg.Done()
		return nil, nil
	})
	for i := 0; i < 3; i++ {
		if err := a.Send("b", "tick", nil); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	wg.Wait()
	if got.Load() != 3 {
		t.Errorf("delivered %d, want 3", got.Load())
	}
}

func TestFabricDialAndPeers(t *testing.T) {
	f := NewFabric()
	a := f.Node("a")
	f.Node("b")
	id, err := a.Dial("b")
	if err != nil || id != "b" {
		t.Fatalf("Dial = %s, %v; want b, nil", id, err)
	}
	if _, err := a.Dial("ghost"); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("Dial ghost err = %v, want ErrUnknownPeer", err)
	}
	peers := a.Peers()
	if len(peers) != 1 || peers[0] != "b" {
		t.Errorf("Peers = %v, want [b]", peers)
	}
}

func TestFabricUnknownPeerAndClosed(t *testing.T) {
	f := NewFabric()
	a, b := f.Node("a"), f.Node("b")
	b.Handle("x", func(NodeID, []byte) ([]byte, error) { return nil, nil })
	if _, err := a.Call("ghost", "x", nil); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("call to ghost: %v, want ErrUnknownPeer", err)
	}
	b.Close()
	if _, err := a.Call("b", "x", nil); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("call to closed peer: %v, want ErrUnknownPeer", err)
	}
	a.Close()
	if err := a.Send("b", "x", nil); !errors.Is(err, ErrTransportClosed) {
		t.Errorf("send from closed node: %v, want ErrTransportClosed", err)
	}
}

func TestFabricStats(t *testing.T) {
	f := NewFabric()
	a, b := f.Node("a"), f.Node("b")
	b.Handle("echo", func(_ NodeID, body []byte) ([]byte, error) { return body, nil })
	if _, err := a.Call("b", "echo", make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	as, bs := a.Stats(), b.Stats()
	if as.ParcelsSent != 1 || as.Calls != 1 {
		t.Errorf("a stats = %+v, want 1 parcel, 1 call", as)
	}
	if as.BytesSent != 10 || as.BytesRecv != 10 {
		t.Errorf("a bytes = sent %d recv %d, want 10/10", as.BytesSent, as.BytesRecv)
	}
	if bs.ParcelsRecv != 1 || bs.BytesRecv != 10 || bs.BytesSent != 10 {
		t.Errorf("b stats = %+v, want 1 parcel, 10 bytes each way", bs)
	}
}

// goid reads the calling goroutine's id from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

func TestFabricSendDeliversInline(t *testing.T) {
	t.Run("no-delay", func(t *testing.T) {
		f := NewFabric()
		a, b := f.Node("a"), f.Node("b")
		var ran string
		b.Handle("m", func(NodeID, []byte) ([]byte, error) { ran = goid(); return nil, nil })
		if err := a.Send("b", "m", nil); err != nil {
			t.Fatal(err)
		}
		if me := goid(); ran != me {
			t.Fatalf("handler ran on goroutine %q, want the sender's %q, before Send returned", ran, me)
		}
	})
	// delayed wires a -> b under an injector whose first Send draws a
	// tangible delay, and returns that delay: the draw replays for the
	// seed, so a twin injector reads it ahead.
	delayed := func(t *testing.T) (*Faults, *InProc, chan struct{}, time.Duration) {
		t.Helper()
		const seed = 5
		twin := NewFaults(seed)
		twin.SetDelay(time.Second)
		d := twin.SendDelay()
		if d < 50*time.Millisecond {
			t.Fatalf("seed %d draws a %v delay; the test needs at least 50ms", seed, d)
		}
		f := NewFabric()
		fl := NewFaults(seed)
		fl.SetDelay(time.Second)
		f.Inject(fl)
		ran := make(chan struct{}, 1)
		f.Node("b").Handle("m", func(NodeID, []byte) ([]byte, error) { ran <- struct{}{}; return nil, nil })
		return fl, f.Node("a"), ran, d
	}
	t.Run("delay", func(t *testing.T) {
		_, a, ran, _ := delayed(t)
		if err := a.Send("b", "m", nil); err != nil {
			t.Fatal(err)
		}
		select {
		case <-ran:
			t.Fatal("a delayed parcel was delivered before Send returned")
		default:
		}
		select {
		case <-ran:
		case <-time.After(5 * time.Second):
			t.Fatal("the delayed parcel never arrived")
		}
	})
	t.Run("partition-mid-flight", func(t *testing.T) {
		fl, a, ran, d := delayed(t)
		if err := a.Send("b", "m", nil); err != nil {
			t.Fatal(err)
		}
		fl.Partition("a", "b")
		select {
		case <-ran:
			t.Fatal("a parcel partitioned during its delay was delivered")
		case <-time.After(d + 100*time.Millisecond):
		}
		if fl.Stats().Blocked != 1 {
			t.Fatalf("Blocked = %d, want the mid-flight check counted once", fl.Stats().Blocked)
		}
	})
}

// TestFabricHandlerSendsBack bounces one parcel between two nodes, each
// handler Sending the next hop to its own sender from inside the
// delivery: the chain completes without deadlock.
func TestFabricHandlerSendsBack(t *testing.T) {
	const hops = 1000
	f := NewFabric()
	var got atomic.Int32
	for _, id := range []NodeID{"a", "b"} {
		n := f.Node(id)
		n.Handle("ball", func(from NodeID, body []byte) ([]byte, error) {
			if got.Add(1) < hops {
				if err := n.Send(from, "ball", body); err != nil {
					t.Errorf("hop %d: %v", got.Load(), err)
				}
			}
			return nil, nil
		})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := f.Node("a").Send("b", "ball", []byte("x")); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the ping-pong deadlocked")
	}
	if n := got.Load(); n != hops {
		t.Fatalf("%d hops delivered, want %d", n, hops)
	}
}
