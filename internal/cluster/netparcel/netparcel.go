// Package netparcel carries parcels between cluster nodes over TCP: the
// real-wire implementation of parcel.Transport. A frame is a small
// binary header and the parcel body:
//
//	length  u32 big-endian: the byte count of everything after it
//	kind    u8: hello, send, call or reply
//	seq     uvarint, call and reply only: matches a reply to its call
//	text    uvarint length + bytes: the method (hello: the sender's
//	        NodeID; reply: the handler's error, empty on success)
//	body    the rest (hello: the sender's dialable address)
//
// so a send costs 6 bytes plus the method name on top of its body.
//
// Each peer sends on one connection. There is no writer goroutine: the
// sender writes. Under the connection's mutex a Send that finds no
// flusher becomes it — it takes its own frame plus every frame other
// senders queued meanwhile, writes them with one gathered write, and
// repeats until the queue is dry — while a Send that finds a flusher
// queues its frame and returns. The gathered write (writev) interleaves
// the batch's headers, laid out in one reused scratch buffer, with the
// callers' bodies, which are never copied in user space. A burst of
// stage hand-offs or percolation fetches still pays one syscall, the
// way a parcel batch amortizes round trips, and no sender waits on
// another's syscall.
//
// The reader finds frame boundaries from the length prefix alone,
// parses the header out of its read buffer, and reads the body into a
// buffer of its own: the body a handler (or a Call's caller) receives
// is its own to keep or modify. Under parcel.Transport a Send hands
// over its body's backing array, up to its capacity, so once a one-way
// frame is written that array is dead to everyone; the flusher keeps it
// on the transport's free list, and the reader takes the buffer for an
// arriving body from that list instead of allocating (it is not zeroed;
// the read overwrites it). Only buffers of at least recycleMin bytes
// take part — below the read buffer's size a fresh allocation is
// cheaper than the list's lock — and the list retains at most
// recycleBytes in all, so a rare large body is left to the garbage
// collector rather than pinned. Call bodies, replies (a handler may
// return shared bytes, such as a code image) and sends that a dead
// connection never wrote are not recycled.
//
// The parcel starts its thread where it lands: a one-way frame's
// handler runs on the connection's read loop itself, so a stage parcel
// goes from the sender's goroutine to the destination shard with no
// hand-off in between (parcel.TransportHandler states what that asks of
// a handler). The read loop never becomes a flusher — two read loops
// blocked writing into each other's full socket buffers would deadlock
// the pair — so a Send issued while a one-way delivery runs hands its
// flush to a one-shot goroutine. Calls, which reply and may block, run
// on a bounded worker pool; they are split transactions matched by
// sequence number, bounded per peer by an outstanding-call window
// (Window) so a slow peer backpressures its callers instead of
// accumulating unbounded in-flight state.
package netparcel

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/parcel"
)

// Frame kinds. hello identifies the dialing node; send is one-way; call
// expects a reply with the same Seq.
const (
	kindHello = iota
	kindSend
	kindCall
	kindReply
)

// frame is the unit on the wire. Text is the method of a send or call,
// the sender's NodeID in a hello (whose Body is its dialable address),
// and the handler's error in a reply (empty for success).
type frame struct {
	Kind uint8
	Seq  uint64
	Text string
	Body []byte
}

// Config tunes a transport; the zero value is usable.
type Config struct {
	// Window bounds outstanding calls per peer (default 256).
	Window int
}

// callTimeout fails a call whose reply has not arrived — a wedged peer
// must not wedge its callers forever.
const callTimeout = 30 * time.Second

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 256
	}
	return c
}

// Transport is the TCP implementation of parcel.Transport.
type Transport struct {
	self parcel.NodeID
	cfg  Config
	ln   net.Listener

	mu       sync.RWMutex
	peers    map[parcel.NodeID]*peer
	conns    map[*wconn]struct{} // every live connection, for Close
	handlers map[string]parcel.TransportHandler
	closed   atomic.Bool
	wg       sync.WaitGroup

	seq     atomic.Uint64
	pending sync.Map // seq -> pendingCall

	// Call handlers run through a bounded worker pool (hworkers <=
	// cfg.Window): a burst of calls from one peer queues here instead of
	// spawning one goroutine per frame.
	hmu      sync.Mutex
	hqueue   []func()
	hworkers int

	// inline counts one-way deliveries running on read loops right now.
	// While it is non-zero a Send that would become a flusher hands the
	// flush to a goroutine instead, so a read loop never blocks in write.
	inline atomic.Int32

	// free holds written Send bodies for the read loops to reuse.
	free bodyList

	bytesSent, bytesRecv atomic.Int64
	parcelsSent          atomic.Int64
}

// peer is one remote node: the connection sends to it go out on and its
// outstanding-call window. Both are guarded by Transport.mu.
type peer struct {
	w   *wconn
	sem chan struct{}
}

// wconn is one live connection. The read loop owns br; out belongs to
// whichever sender is the flusher (the hello exchange uses both before
// either runs), and mu guards the queue and the flusher hand-off.
type wconn struct {
	c      net.Conn
	br     *bufio.Reader
	out    gather
	tr     *Transport
	closed atomic.Bool

	mu       sync.Mutex
	queue    []frame // frames waiting for the flusher
	spare    []frame // the flusher's previous batch, reused as the next queue
	flushing bool
}

// pendingCall is one outstanding Call: the reply channel and the
// connection the request left on, so a dying connection can fail
// exactly the calls stranded on it.
type pendingCall struct {
	w  *wconn
	ch chan frame
}

var errClosed = parcel.ErrTransportClosed

// Listen starts a transport for node self on addr (host:port; port 0
// picks a free one). The transport accepts peers immediately.
func Listen(self parcel.NodeID, addr string, cfg Config) (*Transport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	t := &Transport{
		self:     self,
		cfg:      cfg.withDefaults(),
		ln:       ln,
		peers:    make(map[parcel.NodeID]*peer),
		conns:    make(map[*wconn]struct{}),
		handlers: make(map[string]parcel.TransportHandler),
	}
	t.wg.Add(1)
	go t.accept()
	return t, nil
}

// Self returns the node id this transport was started with.
func (t *Transport) Self() parcel.NodeID { return t.self }

// Addr returns the listener's address — what peers Dial.
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// Handle installs the handler for a method (re-registration replaces).
func (t *Transport) Handle(method string, h parcel.TransportHandler) {
	if h == nil {
		panic("netparcel: nil handler")
	}
	t.mu.Lock()
	t.handlers[method] = h
	t.mu.Unlock()
}

func (t *Transport) handler(method string) (parcel.TransportHandler, bool) {
	t.mu.RLock()
	h, ok := t.handlers[method]
	t.mu.RUnlock()
	return h, ok
}

// Dial connects to the node listening at addr, exchanges hellos, and
// returns its NodeID. The connection becomes the peer's sending
// connection unless the peer already has a live one.
func (t *Transport) Dial(addr string) (parcel.NodeID, error) {
	if t.closed.Load() {
		return "", errClosed
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return "", err
	}
	// Hello out, hello back: both sides learn who is on the wire before
	// any parcel rides it.
	w := &wconn{c: c, br: bufio.NewReader(c), tr: t}
	if err := w.hello(); err != nil {
		c.Close()
		return "", err
	}
	id, err := w.readHello()
	if err != nil {
		c.Close()
		return "", fmt.Errorf("netparcel: hello from %s: %w", addr, err)
	}
	if err := t.addConn(id, w); err != nil {
		return "", err
	}
	return id, nil
}

// addConn registers a live, hello-complete connection and starts its
// read loop. It becomes the peer's sending connection when the peer has
// no live one; otherwise (both sides dialed at once) it is only read,
// and carries replies to the calls that arrive on it.
func (t *Transport) addConn(id parcel.NodeID, w *wconn) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		w.shut()
		return errClosed
	}
	p, ok := t.peers[id]
	if !ok {
		p = &peer{sem: make(chan struct{}, t.cfg.Window)}
		t.peers[id] = p
	}
	if p.w == nil || p.w.closed.Load() {
		p.w = w
	}
	t.conns[w] = struct{}{}
	t.wg.Add(1)
	go t.readLoop(w, id)
	return nil
}

// accept admits inbound connections: the dialer's hello names it, we
// hello back, and the connection is registered under that peer.
func (t *Transport) accept() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go func(c net.Conn) {
			w := &wconn{c: c, br: bufio.NewReader(c), tr: t}
			id, err := w.readHello()
			if err != nil || w.hello() != nil {
				c.Close()
				return
			}
			_ = t.addConn(id, w)
		}(c)
	}
}

// readLoop drains one connection. Replies resolve pending calls and
// one-way frames run their handler, both right here: a reply is never
// stuck behind handler work (the pool's deadlock guard), and a one-way
// parcel starts its work with no goroutine hand-off. Calls dispatch to
// the bounded worker pool, because their handlers may block — and a
// handler that Calls back over this connection needs this loop live to
// read its reply.
func (t *Transport) readLoop(w *wconn, from parcel.NodeID) {
	defer t.wg.Done()
	for {
		f, err := readFrame(w.br, &t.bytesRecv, &t.free)
		if err != nil {
			w.shut()
			t.mu.Lock()
			delete(t.conns, w)
			t.mu.Unlock()
			t.failPending(w)
			return
		}
		switch f.Kind {
		case kindReply:
			if pc, ok := t.pending.LoadAndDelete(f.Seq); ok {
				pc.(pendingCall).ch <- f
			}
		case kindSend:
			if h, ok := t.handler(f.Text); ok {
				t.inline.Add(1)
				_, _ = h(from, f.Body)
				t.inline.Add(-1)
			}
		case kindCall:
			h, ok := t.handler(f.Text)
			t.dispatch(func() {
				rep := frame{Kind: kindReply, Seq: f.Seq}
				if !ok {
					rep.Text = fmt.Sprintf("netparcel: node %s has no handler %q", t.self, f.Text)
				} else if v, err := h(from, f.Body); err != nil {
					rep.Text = err.Error()
				} else {
					rep.Body = v
				}
				_ = w.send(rep)
			})
		}
	}
}

// dispatch queues one call handler invocation for the bounded worker
// pool, growing the pool lazily up to Config.Window workers. Queueing
// never blocks the read loop.
func (t *Transport) dispatch(fn func()) {
	t.hmu.Lock()
	t.hqueue = append(t.hqueue, fn)
	if t.hworkers < t.cfg.Window {
		t.hworkers++
		go t.handlerWorker()
	}
	t.hmu.Unlock()
}

// handlerWorker drains queued handler invocations and exits when the
// queue goes dry, so an idle transport holds no pool goroutines.
func (t *Transport) handlerWorker() {
	for {
		t.hmu.Lock()
		if len(t.hqueue) == 0 {
			t.hworkers--
			t.hmu.Unlock()
			return
		}
		fn := t.hqueue[0]
		t.hqueue = t.hqueue[1:]
		t.hmu.Unlock()
		fn()
	}
}

// route returns dest's peer and the connection sends to it go out on.
// It never dials — the cluster membership layer owns who is reachable.
func (t *Transport) route(dest parcel.NodeID) (*peer, *wconn, error) {
	if t.closed.Load() {
		return nil, nil, errClosed
	}
	t.mu.RLock()
	p, ok := t.peers[dest]
	var w *wconn
	if ok {
		w = p.w
	}
	t.mu.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", parcel.ErrUnknownPeer, dest)
	}
	if w.closed.Load() {
		return nil, nil, fmt.Errorf("%w: %s (no live connection)", parcel.ErrUnknownPeer, dest)
	}
	return p, w, nil
}

// Send delivers a one-way parcel.
func (t *Transport) Send(dest parcel.NodeID, method string, body []byte) error {
	_, w, err := t.route(dest)
	if err != nil {
		return err
	}
	t.parcelsSent.Add(1)
	return w.send(frame{Kind: kindSend, Text: method, Body: body})
}

// Call performs a split transaction: the frame ships to dest, the
// matching reply (or the handler's error) comes back. Outstanding calls
// to one peer are bounded by the window; callers beyond it block until a
// slot frees, which is the transport's backpressure.
func (t *Transport) Call(dest parcel.NodeID, method string, body []byte) ([]byte, error) {
	p, w, err := t.route(dest)
	if err != nil {
		return nil, err
	}
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	seq := t.seq.Add(1)
	ch := make(chan frame, 1)
	t.pending.Store(seq, pendingCall{w: w, ch: ch})
	t.parcelsSent.Add(1)
	if err := w.send(frame{Kind: kindCall, Seq: seq, Text: method, Body: body}); err != nil {
		t.pending.Delete(seq)
		return nil, err
	}
	select {
	case f := <-ch:
		if f.Text != "" {
			return nil, errors.New(f.Text)
		}
		return f.Body, nil
	case <-time.After(callTimeout):
		t.pending.Delete(seq)
		return nil, fmt.Errorf("netparcel: call %s to %s timed out after %v", method, dest, callTimeout)
	}
}

// Peers lists the currently connected peers.
func (t *Transport) Peers() []parcel.NodeID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return slices.Collect(maps.Keys(t.peers))
}

// Stats snapshots the wire counters. BytesSent/BytesRecv count real
// framed bytes, length prefixes included.
func (t *Transport) Stats() parcel.TransportStats {
	return parcel.TransportStats{
		BytesSent:   t.bytesSent.Load(),
		BytesRecv:   t.bytesRecv.Load(),
		ParcelsSent: t.parcelsSent.Load(),
	}
}

// failPending fails outstanding calls stranded on a dead connection
// (or, with a nil w, all of them) so callers unblock immediately
// instead of riding out the call timeout. LoadAndDelete makes each
// entry single-winner against a racing reply.
func (t *Transport) failPending(w *wconn) {
	t.pending.Range(func(k, v any) bool {
		pc := v.(pendingCall)
		if w != nil && pc.w != w {
			return true
		}
		if _, ok := t.pending.LoadAndDelete(k); ok {
			pc.ch <- frame{Kind: kindReply, Text: errClosed.Error()}
		}
		return true
	})
}

// Close shuts the listener and every connection, fails every
// outstanding call, and waits for the read loops to drain.
func (t *Transport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	t.ln.Close()
	t.mu.Lock()
	for w := range t.conns {
		w.shut()
	}
	t.mu.Unlock()
	t.failPending(nil)
	t.wg.Wait()
	return nil
}

// send queues f and, when no sender is flushing the connection, becomes
// the flusher. A send issued while a one-way delivery runs on a read
// loop hands its flush to a one-shot goroutine instead: the read loop
// must never block in write, or two of them writing into each other's
// full socket buffers deadlock the pair.
func (w *wconn) send(f frame) error {
	w.mu.Lock()
	if w.closed.Load() {
		w.mu.Unlock()
		return errClosed
	}
	w.queue = append(w.queue, f)
	if w.flushing {
		w.mu.Unlock()
		return nil
	}
	w.flushing = true
	w.mu.Unlock()
	if w.tr.inline.Load() > 0 {
		go w.flush()
	} else {
		w.flush()
	}
	return nil
}

// flush is the flat-combining writer: it takes everything queued,
// writes it with one gathered write, and repeats until the queue is
// dry — N frames, one syscall. The written bodies of one-way frames go
// to the free list. Frames still queued when the connection dies are
// dropped with it.
func (w *wconn) flush() {
	w.mu.Lock()
	for len(w.queue) > 0 && !w.closed.Load() {
		batch := w.queue
		w.queue = w.spare[:0]
		w.mu.Unlock()
		err := w.out.write(w.c, batch, &w.tr.bytesSent)
		if err != nil {
			w.shut()
		}
		for i := range batch {
			if err == nil && batch[i].Kind == kindSend {
				w.tr.free.put(batch[i].Body)
			}
			batch[i] = frame{} // release the body
		}
		w.mu.Lock()
		w.spare = batch
	}
	w.flushing = false
	w.mu.Unlock()
}

// shut closes the connection exactly once; a send that has not queued
// yet sees closed and fails.
func (w *wconn) shut() {
	if !w.closed.Swap(true) {
		w.c.Close()
	}
}

// hello writes this transport's hello (the connection setup path,
// before any sender or the read loop runs).
func (w *wconn) hello() error {
	hello := frame{Kind: kindHello, Text: string(w.tr.self), Body: []byte(w.tr.Addr())}
	return w.out.write(w.c, []frame{hello}, &w.tr.bytesSent)
}

// readHello reads the peer's hello and returns the NodeID it names.
func (w *wconn) readHello() (parcel.NodeID, error) {
	h, err := readFrame(w.br, &w.tr.bytesRecv, &w.tr.free)
	if err == nil && (h.Kind != kindHello || h.Text == "") {
		err = errors.New("netparcel: bad hello")
	}
	return parcel.NodeID(h.Text), err
}

// gather is a connection's write scratch, reused batch to batch: the
// batch's frame headers and the gather list that interleaves them with
// the bodies.
type gather struct {
	hdr []byte
	iov net.Buffers
}

// write sends a batch of frames with one gathered write: each frame's
// header from the scratch buffer, then its body as the caller passed
// it. The batch's bytes are added to sent before the write, so a peer's
// answer never arrives ahead of the count.
func (g *gather) write(dst io.Writer, batch []frame, sent *atomic.Int64) error {
	hdr, iov, n := g.hdr[:0], g.iov[:0], 0
	for i := range batch {
		f := &batch[i]
		start := len(hdr)
		hdr = append(hdr, 0, 0, 0, 0, f.Kind)
		if f.Kind == kindCall || f.Kind == kindReply {
			hdr = binary.AppendUvarint(hdr, f.Seq)
		}
		hdr = append(binary.AppendUvarint(hdr, uint64(len(f.Text))), f.Text...)
		binary.BigEndian.PutUint32(hdr[start:], uint32(len(hdr)-start-4+len(f.Body)))
		iov = append(iov, hdr[start:], f.Body) // a piece of a grown-out array still holds its header
		n += len(f.Body)
	}
	sent.Add(int64(len(hdr) + n))
	bufs := iov // WriteTo consumes its receiver
	_, err := bufs.WriteTo(dst)
	clear(iov)
	g.hdr, g.iov = hdr, iov[:0]
	return err
}

// maxFrame bounds one frame: a corrupt length prefix must not allocate
// gigabytes.
const maxFrame = 64 << 20

var errBadFrame = errors.New("netparcel: malformed frame")

// readFrame reads one frame, adding its bytes to recv. The header is
// parsed out of br's buffer; the body, which the returned Body is, is
// read into a buffer from free (see bodyList.get).
func readFrame(br *bufio.Reader, recv *atomic.Int64, free *bodyList) (frame, error) {
	var lb [4]byte
	if _, err := io.ReadFull(br, lb[:]); err != nil {
		return frame{}, err
	}
	n := int(binary.BigEndian.Uint32(lb[:]))
	if n > maxFrame {
		return frame{}, fmt.Errorf("netparcel: frame of %d bytes exceeds limit", n)
	}
	h, err := br.Peek(min(n, br.Size())) // the whole header, unless the text is huge
	if err != nil {
		return frame{}, err
	}
	if len(h) == 0 || h[0] > kindReply {
		return frame{}, errBadFrame
	}
	f, k := frame{Kind: h[0]}, 1
	if f.Kind == kindCall || f.Kind == kindReply {
		seq, m := binary.Uvarint(h[k:])
		if m <= 0 {
			return frame{}, errBadFrame
		}
		f.Seq, k = seq, k+m
	}
	l, m := binary.Uvarint(h[k:])
	if k += m; m <= 0 || l > uint64(n-k) {
		return frame{}, errBadFrame
	}
	if k+int(l) <= len(h) {
		f.Text = string(h[k : k+int(l)])
		br.Discard(k + int(l))
	} else {
		br.Discard(k)
		text := make([]byte, l)
		if _, err := io.ReadFull(br, text); err != nil {
			return frame{}, err
		}
		f.Text = string(text)
	}
	f.Body = free.get(n - k - int(l))
	if _, err := io.ReadFull(br, f.Body); err != nil {
		return frame{}, err
	}
	recv.Add(int64(4 + n))
	return f, nil
}

// Body recycling bounds: a body shorter than recycleMin is neither kept
// nor drawn, and the free list retains at most recycleBytes in all.
const recycleMin, recycleBytes = 4 << 10, 256 << 10

// bodyList is a transport's free list of written Send bodies.
type bodyList struct {
	mu    sync.Mutex
	bufs  [][]byte
	bytes int // retained, at most recycleBytes
}

// put keeps a written Send body, to its capacity, unless it is small or
// breaks the bound.
func (l *bodyList) put(b []byte) {
	if b = b[:cap(b)]; len(b) >= recycleMin {
		l.mu.Lock()
		if l.bytes+len(b) <= recycleBytes {
			l.bufs, l.bytes = append(l.bufs, b), l.bytes+len(b)
		}
		l.mu.Unlock()
	}
}

// get returns an n-byte buffer for a body: a kept one of n to 2n bytes
// when there is one (not zeroed; its capacity goes with it), else a
// fresh one.
func (l *bodyList) get(n int) []byte {
	if n >= recycleMin {
		l.mu.Lock()
		if i := slices.IndexFunc(l.bufs, func(b []byte) bool { return len(b) >= n && len(b) <= 2*n }); i >= 0 {
			b := l.bufs[i]
			l.bufs, l.bytes = slices.Delete(l.bufs, i, i+1), l.bytes-len(b)
			l.mu.Unlock()
			return b[:n]
		}
		l.mu.Unlock()
	}
	return make([]byte, n)
}
