// Package parcel implements LITL-X parcels (Section 3.2): intelligent
// messages that carry work to the data rather than fetching data to the
// work, in the HTMT/Gilgamesh split-transaction tradition. A parcel
// names a destination locale and a registered handler; the handler runs
// as an SGT at the destination. Split transactions return their result
// through a reply continuation delivered back at the sender's locale,
// so the sender never blocks unless it asks to.
//
// Net runs parcels on the native HTVM runtime (internal/core); the
// Transport interface carries them between the processes of a
// cluster. The simulated twin of Net, SimNet, lives with the
// percolation models in internal/percolate, so this package links no
// simulator.
package parcel

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/syncx"
)

// Handler processes a parcel at its destination. It runs as an SGT at
// the destination locale; the returned value becomes the reply for
// split transactions (ignored for one-way sends).
type Handler func(ctx *Ctx) interface{}

// Ctx is the handler's view of the parcel it is processing.
type Ctx struct {
	// SGT is the small-grain thread the handler runs on.
	SGT *core.SGT
	// From is the sending locale.
	From int
	// Payload is the parcel body.
	Payload interface{}
	net     *Net
}

// Net routes parcels between the locales of a core.Runtime.
type Net struct {
	rt  *core.Runtime
	mon *monitor.Monitor

	mu       sync.RWMutex
	handlers map[string]Handler
}

// NewNet creates a parcel network over rt.
func NewNet(rt *core.Runtime) *Net {
	return &Net{rt: rt, mon: rt.Monitor(), handlers: make(map[string]Handler)}
}

// Register installs a handler under the given name. Registration after
// traffic has started is allowed; re-registration replaces.
func (n *Net) Register(name string, h Handler) {
	if h == nil {
		panic("parcel: nil handler")
	}
	n.mu.Lock()
	n.handlers[name] = h
	n.mu.Unlock()
}

func (n *Net) handler(name string) Handler {
	n.mu.RLock()
	h, ok := n.handlers[name]
	n.mu.RUnlock()
	if !ok {
		panic(fmt.Sprintf("parcel: no handler %q", name))
	}
	return h
}

// HandlerPanic is the value delivered to a Send result cell or a Call
// continuation whose handler panicked: the call fails with an inspectable
// error instead of wedging the caller's cell forever. It satisfies error
// so callers can type-switch or errors.As on the reply.
type HandlerPanic struct {
	Handler string      // the registered handler name
	Value   interface{} // the recovered panic value
}

// Error describes the panicked handler.
func (e HandlerPanic) Error() string {
	return fmt.Sprintf("parcel: handler %q panicked: %v", e.Handler, e.Value)
}

// run invokes the handler, converting a panic into a HandlerPanic reply
// so split transactions always complete.
func (n *Net) run(h Handler, name string, ctx *Ctx) (v interface{}) {
	defer func() {
		if r := recover(); r != nil {
			n.mon.Counter("parcel.panics").Inc()
			v = HandlerPanic{Handler: name, Value: r}
		}
	}()
	return h(ctx)
}

// Send dispatches a one-way parcel: handler name runs at dest with the
// payload. The returned cell fills when the handler finishes (its value
// is the handler result), but callers are free to ignore it.
func (n *Net) Send(from, dest int, name string, payload interface{}) *syncx.Cell[interface{}] {
	h := n.handler(name)
	n.mon.Counter("parcel.sent").Inc()
	if from != dest {
		n.mon.Counter("parcel.remote").Inc()
	}
	result := syncx.NewCell[interface{}]()
	n.rt.GoAt(dest, 0, func(s *core.SGT) {
		v := n.run(h, name, &Ctx{SGT: s, From: from, Payload: payload, net: n})
		result.Put(v)
	})
	return result
}

// Call performs a split transaction: the handler runs at dest, and its
// return value is delivered to cont, which runs as a new SGT back at
// the from locale ("localized buffering of requests at the site of the
// needed values" composes: see future.Future for the buffering side).
// Cont may be nil for fire-and-forget with reply accounting.
func (n *Net) Call(from, dest int, name string, payload interface{}, cont func(*core.SGT, interface{})) {
	h := n.handler(name)
	n.mon.Counter("parcel.sent").Inc()
	n.mon.Counter("parcel.calls").Inc()
	if from != dest {
		n.mon.Counter("parcel.remote").Inc()
	}
	n.rt.GoAt(dest, 0, func(s *core.SGT) {
		v := n.run(h, name, &Ctx{SGT: s, From: from, Payload: payload, net: n})
		n.mon.Counter("parcel.replies").Inc()
		if cont == nil {
			return
		}
		n.rt.GoAt(from, 0, func(cs *core.SGT) { cont(cs, v) })
	})
}

// Forward re-targets the in-flight parcel to another locale, preserving
// the original sender; the handler chain behaves like one logical
// parcel hopping toward its data (parcel "intelligence").
func (c *Ctx) Forward(dest int, name string, payload interface{}) {
	c.net.mon.Counter("parcel.forwarded").Inc()
	c.net.Send(c.From, dest, name, payload)
}
