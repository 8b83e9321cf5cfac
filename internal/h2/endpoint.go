package h2

import "repro/internal/netem"

// SimEndpoint drives a Core over a netem.End inside the discrete-event
// simulator. Outgoing frames are produced lazily: a frame is pulled from
// the scheduler only when the transport's send buffer has drained into
// the congestion window, which gives the stream scheduler frame-granular
// control over ordering — the property the interleaving scheduler relies
// on (and how h2o behaves with small write buffers).
//
// The endpoint is the zero-copy junction between the two layers: each
// frame is handed to the transport as a header slice plus payload
// subslices via AppendWrite/WriteV, and received segment slices are fed
// straight into Core.Recv, so body bytes cross the simulated network
// without being copied at either side.
type SimEndpoint struct {
	Core *Core
	End  *netem.End

	// pool recycles frame chunk containers. pump is reentrant — popping a
	// stream's final frame can wake the scheduler, and the nested pump
	// writes the frames it pops before the outer frame is handed to the
	// transport — so each nesting depth borrows its own container.
	pool [][][]byte

	// Cached method-value closures, built once per endpoint so pooled
	// endpoints re-attach to a fresh transport without allocating.
	recvFn func([]byte)
	pumpFn func()
}

// Attach (re-)wires an endpoint (new, or pooled) to core over a fresh
// transport end and starts the connection. The core must be Reset (or
// new) and the previous transport fully torn down.
func (ep *SimEndpoint) Attach(core *Core, end *netem.End) {
	if ep.Core != core || ep.recvFn == nil {
		ep.recvFn = core.Recv
		ep.pumpFn = ep.pump
	}
	ep.Core, ep.End = core, end
	end.SetReceiver(ep.recvFn)
	core.OnWritable = ep.pumpFn
	end.SetOnDrain(ep.pumpFn)
	core.Start()
	ep.pump()
}

//repolint:hotpath
func (ep *SimEndpoint) pump() {
	// Refill while the transport accepted everything so far; stop as soon
	// as bytes sit in the app buffer (the congestion window is full).
	for ep.End.Buffered() == 0 {
		chunks := ep.getChunks()
		chunks = ep.Core.AppendWrite(chunks, 0)
		if len(chunks) == 0 {
			ep.putChunks(chunks)
			return
		}
		ep.End.WriteV(chunks)
		ep.putChunks(chunks)
	}
}

//repolint:hotpath
func (ep *SimEndpoint) getChunks() [][]byte {
	if n := len(ep.pool); n > 0 {
		c := ep.pool[n-1]
		ep.pool[n-1] = nil
		ep.pool = ep.pool[:n-1]
		return c
	}
	return nil
}

// putChunks returns a container to the pool. WriteV copied the slice
// headers into the transport's queue, so dropping our references here
// leaves the queued bytes untouched.
//
//repolint:owns the container itself is recycled; its byte slices were already handed off
//repolint:hotpath
func (ep *SimEndpoint) putChunks(c [][]byte) {
	for i := range c {
		c[i] = nil
	}
	ep.pool = append(ep.pool, c[:0])
}
