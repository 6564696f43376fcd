package percolate

import (
	"fmt"

	"repro/internal/c64"
)

// SimHandler processes a parcel on the simulator: it runs as a tasklet
// at the destination node and returns the reply payload.
type SimHandler func(tu *c64.TU, from int, payload int64) int64

// SimParcel is a parcel on the simulated machine. Payloads are int64
// (an address or small scalar): parcels are small by design — that is
// the point of moving work to data.
type simParcel struct {
	from    int
	handler string
	payload int64
	reply   *c64.Chan[int64] // nil for one-way sends
}

// SimNet routes parcels between the nodes of a simulated machine. Each
// node runs a dispatcher tasklet that receives parcels and spawns a
// handler tasklet per parcel (the parcel activation = SGT analogy). It
// is the simulated twin of parcel.Net, kept beside the percolation
// models that run on it so that the serving build links no simulator.
//
// SimNet also models percolation (Section 3.2: "percolation of program
// instruction blocks ... at the site of the intended computation", and
// likewise of program data blocks): a handler registered with
// RegisterCode has a code image that must be resident before the
// handler can run on a node, and a block registered with RegisterData
// is a data working set that a computation touches. The first parcel
// (or TouchData) naming a cold block on a node pays the transfer from
// the block's home node; later uses run warm. PrefetchCode and
// PrefetchData install the block ahead of time, hiding that latency —
// percolation of code and of data through one mechanism.
type SimNet struct {
	m        *c64.Machine
	inboxes  []*c64.Chan[simParcel]
	handlers map[string]SimHandler
	code     map[string]*block // handler name -> percolatable code image
	data     map[string]*block // block name -> percolatable data block
	stopped  bool
}

// block is one percolatable unit — a handler's code image or a named
// data working set — with its residency and in-flight transfer state.
type block struct {
	home       int             // node the block initially lives on
	size       int             // bytes
	resident   map[int]bool    // nodes holding a copy
	installing map[int]*c64.WG // in-flight transfers, single-flighted
	transfers  int             // completed network crossings
}

func newBlock(home, size int) *block {
	return &block{
		home:       home,
		size:       size,
		resident:   map[int]bool{home: true},
		installing: make(map[int]*c64.WG),
	}
}

// NewSimNet creates a parcel network over m and starts one dispatcher
// tasklet per node. Dispatchers occupy a thread unit only while
// distributing; handlers run as their own tasklets.
func NewSimNet(m *c64.Machine) *SimNet {
	n := &SimNet{
		m:        m,
		handlers: make(map[string]SimHandler),
		code:     make(map[string]*block),
		data:     make(map[string]*block),
	}
	cfg := m.Config()
	for node := 0; node < cfg.Nodes; node++ {
		// Inbox latency 0: transport latency is charged by the sender
		// per-destination (it depends on hop count).
		n.inboxes = append(n.inboxes, c64.NewChan[simParcel](m, 0))
	}
	for node := 0; node < cfg.Nodes; node++ {
		node := node
		m.SpawnAfter(node, 0, func(tu *c64.TU) { n.dispatch(tu, node) })
	}
	return n
}

// Register installs a handler. Handlers must be registered before the
// simulation Run starts delivering parcels to them.
func (n *SimNet) Register(name string, h SimHandler) {
	if h == nil {
		panic("percolate: nil sim handler")
	}
	n.handlers[name] = h
}

// RegisterCode installs a handler whose code image of size bytes lives
// on home; nodes must fetch the image before running it (lazily on
// first use, or eagerly via PrefetchCode).
func (n *SimNet) RegisterCode(name string, home, size int, h SimHandler) {
	n.Register(name, h)
	n.code[name] = newBlock(home, size)
}

// RegisterData declares a percolatable data block of size bytes homed
// at home. A computation's working set registered this way pays the
// transfer on first touch at a node (TouchData), or ahead of time via
// PrefetchData — percolation of data, the same mechanism as code.
func (n *SimNet) RegisterData(name string, home, size int) {
	n.data[name] = newBlock(home, size)
}

// PrefetchCode percolates the handler image to node ahead of use from
// a tasklet on any node; the caller blocks for the transfer (issue it
// from a helper tasklet to overlap).
func (n *SimNet) PrefetchCode(tu *c64.TU, name string, node int) {
	n.install(tu, n.code[name], node)
}

// PrefetchData percolates the named data block to node ahead of the
// computation that touches it; the caller blocks for the transfer.
func (n *SimNet) PrefetchData(tu *c64.TU, name string, node int) {
	n.install(tu, n.mustData(name), node)
}

// TouchData ensures the named block is resident at node, fetching it on
// demand if percolation did not stage it — the critical-path cost a
// computation pays for an unstaged working set.
func (n *SimNet) TouchData(tu *c64.TU, name string, node int) {
	n.install(tu, n.mustData(name), node)
}

func (n *SimNet) mustData(name string) *block {
	b, ok := n.data[name]
	if !ok {
		panic(fmt.Sprintf("percolate: no sim data block %q", name))
	}
	return b
}

// install fetches the block to node if absent, charging the transfer to
// the calling tasklet. Concurrent requesters of the same cold block
// single-flight: the first pays the transfer, the rest wait for it to
// land, so a burst racing a cold block moves it across the network
// exactly once.
func (n *SimNet) install(tu *c64.TU, b *block, node int) {
	if b == nil {
		return // plain handler: code is everywhere for free
	}
	if b.resident[node] {
		return
	}
	if wg, busy := b.installing[node]; busy {
		wg.Wait(tu)
		return
	}
	wg := c64.NewWG(n.m)
	wg.Add(1)
	b.installing[node] = wg
	tu.MemCopy(
		c64.Addr{Node: node, Region: c64.SRAM, Line: 0},
		c64.Addr{Node: b.home, Region: c64.DRAM, Line: 0},
		b.size,
	)
	b.resident[node] = true
	b.transfers++
	delete(b.installing, node)
	wg.Done()
}

// Transfers reports how many times the named handler's code image has
// actually crossed the network (lazy installs and prefetches alike).
func (n *SimNet) Transfers(name string) int {
	if b, ok := n.code[name]; ok {
		return b.transfers
	}
	return 0
}

// DataTransfers reports how many times the named data block has crossed
// the network (demand touches and prefetches alike).
func (n *SimNet) DataTransfers(name string) int { return n.mustData(name).transfers }

// CodeResident reports whether the handler image is installed on node.
func (n *SimNet) CodeResident(name string, node int) bool {
	b, ok := n.code[name]
	if !ok {
		return true
	}
	return b.resident[node]
}

// DataResident reports whether the named data block is installed on node.
func (n *SimNet) DataResident(name string, node int) bool {
	return n.mustData(name).resident[node]
}

// dispatch is the per-node delivery loop. It exits when Stop is called
// (signaled by a poison parcel), so simulations can quiesce.
func (n *SimNet) dispatch(tu *c64.TU, node int) {
	for {
		p := n.inboxes[node].Recv(tu)
		if p.handler == "" { // poison
			return
		}
		h, ok := n.handlers[p.handler]
		if !ok {
			panic(fmt.Sprintf("percolate: no sim handler %q", p.handler))
		}
		pp := p
		tu.Machine().Spawn(node, func(ht *c64.TU) {
			n.install(ht, n.code[pp.handler], node) // cold-start cost, if any
			v := h(ht, pp.from, pp.payload)
			if pp.reply != nil {
				pp.reply.Send(v)
			}
		})
	}
}

// wireLat returns the one-way parcel latency between nodes: header cost
// plus per-hop latency (parcels are one line, so no payload term).
func (n *SimNet) wireLat(from, dest int) int64 {
	cfg := n.m.Config()
	return cfg.PortOcc + cfg.Hops(from, dest)*cfg.HopLat
}

// checkHandler validates the handler name at send time, on the sender's
// goroutine, so misuse panics where the caller can see it.
func (n *SimNet) checkHandler(name string) {
	if _, ok := n.handlers[name]; !ok {
		panic(fmt.Sprintf("percolate: no sim handler %q", name))
	}
}

// Send dispatches a one-way parcel from a tasklet.
func (n *SimNet) Send(tu *c64.TU, dest int, handler string, payload int64) {
	n.checkHandler(handler)
	p := simParcel{from: tu.Node(), handler: handler, payload: payload}
	n.m.After(n.wireLat(tu.Node(), dest), func() { n.inboxes[dest].Send(p) })
	tu.Compute(1) // issue slot
}

// Call performs a split transaction and blocks the caller until the
// reply arrives. The caller's thread unit is free to be reassigned only
// in the CallAsync form; Call models the naive blocking client.
func (n *SimNet) Call(tu *c64.TU, dest int, handler string, payload int64) int64 {
	n.checkHandler(handler)
	reply := c64.NewChan[int64](n.m, n.wireLat(dest, tu.Node()))
	p := simParcel{from: tu.Node(), handler: handler, payload: payload, reply: reply}
	n.m.After(n.wireLat(tu.Node(), dest), func() { n.inboxes[dest].Send(p) })
	tu.Compute(1)
	return reply.Recv(tu)
}

// CallAsync issues the request and returns the reply channel so the
// caller can overlap computation with the round trip (split-phase).
func (n *SimNet) CallAsync(tu *c64.TU, dest int, handler string, payload int64) *c64.Chan[int64] {
	n.checkHandler(handler)
	reply := c64.NewChan[int64](n.m, n.wireLat(dest, tu.Node()))
	p := simParcel{from: tu.Node(), handler: handler, payload: payload, reply: reply}
	n.m.After(n.wireLat(tu.Node(), dest), func() { n.inboxes[dest].Send(p) })
	tu.Compute(1)
	return reply
}

// Stop terminates the dispatcher tasklets so Machine.Run can quiesce.
// Call it (from any tasklet or via Machine.After) once no more parcels
// will be sent.
func (n *SimNet) Stop() {
	if n.stopped {
		return
	}
	n.stopped = true
	for _, in := range n.inboxes {
		in.Send(simParcel{}) // poison
	}
}
