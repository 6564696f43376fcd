package parcel

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the node-to-node transport abstraction under the cluster
// subsystem (internal/cluster). The paper's parcels are split-transaction
// messages between locales; when the locale space spans several
// processes, the parcels between them have to be carried by something
// real. Transport is that carrier: a byte-level, method-addressed
// send/call surface between named nodes, deliberately decoupled from the
// SGT runtime — what rides on it (cluster membership, stage hand-offs,
// percolation fetches) decides where the work runs.
//
// Two implementations exist: the in-process Fabric below, which keeps
// every "node" in one address space so clustered scenarios replay
// deterministically, and the TCP transport
// in internal/cluster/netparcel, which carries the same parcels between
// machines in binary length-prefixed frames.

// NodeID names one transport endpoint (one cluster node).
type NodeID string

// ErrUnknownPeer reports a send to a node the transport has no route to.
var ErrUnknownPeer = errors.New("parcel: unknown transport peer")

// ErrTransportClosed reports use of a closed transport.
var ErrTransportClosed = errors.New("parcel: transport closed")

// TransportHandler processes one inbound transport parcel. The returned
// bytes are the reply for Call deliveries (ignored for Send); a non-nil
// error fails the caller's Call. The handler owns body: it may keep it,
// alias it into decoded values, modify it in place, and hand it on to
// Send. The in-process fabric hands over the sender's own slice, and
// the TCP transport reads arriving bodies into the buffers of Sends it
// has written, which is why a sender must not touch a body after Send
// (see Transport). A handler may return bytes it keeps using (a code
// image, say): no transport reuses a reply's buffer. A handler
// delivered by Send runs on the sender's goroutine on the fabric (a
// fault-delayed parcel excepted) and on the connection's read loop on
// the TCP transport, so it must not block: a handler that might (a Call
// back to the sender, a lock held across I/O) hands its own work off to
// another goroutine.
type TransportHandler func(from NodeID, body []byte) ([]byte, error)

// TransportStats counts a transport's traffic: real bytes on the wire
// (frame headers included for the TCP transport, body bytes for the
// in-process fabric) and parcel volume.
type TransportStats struct {
	BytesSent, BytesRecv     int64
	ParcelsSent, ParcelsRecv int64
	Calls                    int64
}

// Transport carries parcels between cluster nodes.
//
// Send is one-way: the sender never waits for a reply, though on the
// fabric the handler itself runs inside Send. Call is a split
// transaction that blocks the caller until the reply (or the handler's
// error) comes back. No code may hold a lock across Send or Call that a
// handler takes.
// Passing a body to Send or Call hands it over: the caller must not
// modify it afterwards (a Send may still be writing it, and the
// receiving handler owns it). Send takes more: the body's whole backing
// array, up to cap(body), which the caller may then neither read,
// modify nor send again — once the TCP transport has written a Send's
// body it reuses that array for an arriving body. To send part of a
// buffer that stays in use, send a copy. A Send that returns an error
// has not taken the body: it is still its caller's. A Call's reply
// belongs to the caller.
// Handle installs the handler for a method name; handlers must be
// installed before peers start sending to them. Dial makes the node at
// addr reachable and returns its NodeID — for the in-process fabric the
// address is the node id itself.
type Transport interface {
	Self() NodeID
	// Addr returns the address peers dial to reach this node.
	Addr() string
	Handle(method string, h TransportHandler)
	Send(dest NodeID, method string, body []byte) error
	Call(dest NodeID, method string, body []byte) ([]byte, error)
	Dial(addr string) (NodeID, error)
	Peers() []NodeID
	Stats() TransportStats
	Close() error
}

// Fabric connects in-process InProc transports: every node lives in this
// process, delivery is a function call, and nothing depends on the
// network or the wall clock — the deterministic twin the cluster
// scenarios replay on. A Send's handler runs on the sender's goroutine
// unless an injected delay postpones it, so it must not block.
type Fabric struct {
	mu     sync.Mutex                         // serialises Node
	nodes  atomic.Pointer[map[NodeID]*InProc] // copied on write: a delivery reads it without a lock
	faults atomic.Pointer[Faults]
}

// NewFabric creates an empty in-process fabric.
func NewFabric() *Fabric {
	f := &Fabric{}
	f.nodes.Store(&map[NodeID]*InProc{})
	return f
}

// Inject attaches a fault injector consulted by every delivery on the
// fabric (nil detaches). Failure scenarios install one before killing
// nodes; the normal path pays one atomic load.
func (f *Fabric) Inject(fl *Faults) { f.faults.Store(fl) }

// Faults returns the currently attached injector (nil when none).
func (f *Fabric) Faults() *Faults { return f.faults.Load() }

// Node creates (or returns) the in-process transport for id.
func (f *Fabric) Node(id NodeID) *InProc {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n, ok := f.lookup(id); ok {
		return n
	}
	n := &InProc{fabric: f, id: id}
	n.handlers.Store(&map[string]TransportHandler{})
	nodes := maps.Clone(*f.nodes.Load())
	nodes[id] = n
	f.nodes.Store(&nodes)
	return n
}

func (f *Fabric) lookup(id NodeID) (*InProc, bool) {
	n, ok := (*f.nodes.Load())[id]
	return n, ok
}

// InProc is one node of a Fabric. Call and Send both run the
// destination handler on the caller's goroutine; only a Send that an
// injected delay postpones is delivered on a goroutine of its own.
type InProc struct {
	fabric   *Fabric
	id       NodeID
	mu       sync.Mutex                                  // serialises Handle
	handlers atomic.Pointer[map[string]TransportHandler] // copied on write, like Fabric.nodes
	closed   atomic.Bool

	bytesSent, bytesRecv     atomic.Int64
	parcelsSent, parcelsRecv atomic.Int64
	calls                    atomic.Int64
}

// Self returns the node's id.
func (n *InProc) Self() NodeID { return n.id }

// Addr returns the node's dialable address — on a fabric, its id.
func (n *InProc) Addr() string { return string(n.id) }

// Handle installs the handler for a method (re-registration replaces).
func (n *InProc) Handle(method string, h TransportHandler) {
	if h == nil {
		panic("parcel: nil transport handler")
	}
	n.mu.Lock()
	hs := maps.Clone(*n.handlers.Load())
	hs[method] = h
	n.handlers.Store(&hs)
	n.mu.Unlock()
}

func (n *InProc) handler(method string) (TransportHandler, error) {
	h, ok := (*n.handlers.Load())[method]
	if !ok {
		return nil, fmt.Errorf("parcel: node %s has no transport handler %q", n.id, method)
	}
	return h, nil
}

// deliver runs the destination's handler, charging both ends' counters.
func (n *InProc) deliver(dest *InProc, method string, body []byte) ([]byte, error) {
	n.parcelsSent.Add(1)
	n.bytesSent.Add(int64(len(body)))
	dest.parcelsRecv.Add(1)
	dest.bytesRecv.Add(int64(len(body)))
	h, err := dest.handler(method)
	if err != nil {
		return nil, err
	}
	return h(n.id, body)
}

func (n *InProc) dest(id NodeID) (*InProc, error) {
	if n.closed.Load() {
		return nil, ErrTransportClosed
	}
	d, ok := n.fabric.lookup(id)
	if !ok || d.closed.Load() {
		return nil, fmt.Errorf("%w: %s", ErrUnknownPeer, id)
	}
	return d, nil
}

// Send delivers a one-way parcel by running its handler right here, on
// the sender's goroutine, the way the TCP transport runs it on the read
// loop (handler errors are dropped, as on a real wire). Injected faults
// apply: a partition or crash fails the send, a drop loses it silently
// after it "left", and a delay postpones delivery to a goroutine of its
// own, which drops the parcel if a partition rises meanwhile.
func (n *InProc) Send(dest NodeID, method string, body []byte) error {
	d, err := n.dest(dest)
	if err != nil {
		return err
	}
	fl := n.fabric.Faults()
	if fl.Blocked(n.id, dest) {
		return fmt.Errorf("%w: %s", ErrPartitioned, dest)
	}
	if fl.DropSend() {
		return nil // lost on the wire: the sender cannot tell
	}
	if delay := fl.SendDelay(); delay > 0 {
		go func() {
			time.Sleep(delay)
			if !fl.Blocked(n.id, dest) { // else partitioned mid-flight: the parcel dies on the wire
				_, _ = n.deliver(d, method, body)
			}
		}()
		return nil
	}
	_, _ = n.deliver(d, method, body)
	return nil
}

// Call runs the destination handler synchronously and returns its reply.
// A partition or crash between the endpoints fails the call.
func (n *InProc) Call(dest NodeID, method string, body []byte) ([]byte, error) {
	d, err := n.dest(dest)
	if err != nil {
		return nil, err
	}
	if n.fabric.Faults().Blocked(n.id, dest) {
		return nil, fmt.Errorf("%w: %s", ErrPartitioned, dest)
	}
	n.calls.Add(1)
	reply, err := n.deliver(d, method, body)
	if err != nil {
		return nil, err
	}
	n.bytesRecv.Add(int64(len(reply)))
	d.bytesSent.Add(int64(len(reply)))
	return reply, nil
}

// Dial resolves a fabric address (a node id) to its NodeID.
func (n *InProc) Dial(addr string) (NodeID, error) {
	if _, ok := n.fabric.lookup(NodeID(addr)); !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownPeer, addr)
	}
	return NodeID(addr), nil
}

// Peers lists the other live nodes on the fabric.
func (n *InProc) Peers() []NodeID {
	nodes := *n.fabric.nodes.Load()
	ids := make([]NodeID, 0, len(nodes)-1)
	for id, p := range nodes {
		if id != n.id && !p.closed.Load() {
			ids = append(ids, id)
		}
	}
	return ids
}

// Stats snapshots the node's traffic counters.
func (n *InProc) Stats() TransportStats {
	return TransportStats{
		BytesSent:   n.bytesSent.Load(),
		BytesRecv:   n.bytesRecv.Load(),
		ParcelsSent: n.parcelsSent.Load(),
		ParcelsRecv: n.parcelsRecv.Load(),
		Calls:       n.calls.Load(),
	}
}

// Close marks the node unreachable; in-flight deliveries finish.
func (n *InProc) Close() error {
	n.closed.Store(true)
	return nil
}
