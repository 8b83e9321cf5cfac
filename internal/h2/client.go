package h2

import "repro/internal/hpack"

// ClientStream is the client's handle on one request or pushed stream.
type ClientStream struct {
	Client *Client
	St     *Stream
	Req    Request
	// Pushed is true for server-initiated streams.
	Pushed bool

	// Callbacks; all optional. OnData receives each DATA frame's payload,
	// once, when the frame is complete; the view is read-only and valid
	// only during the call (see DataView). OnComplete
	// fires when the response (headers+body) finished, with the total
	// body length. OnFailed fires instead of OnComplete when the peer
	// resets the stream (RST_STREAM) before it completes; a stream fails
	// or finishes, never both.
	OnData     func(data DataView)
	OnComplete func(totalBody int)
	OnFailed   func(code ErrCode)

	bodyLen  int
	complete bool
	failed   bool
}

// Completed reports whether the response has fully arrived.
func (cs *ClientStream) Completed() bool { return cs.complete }

// Cancel resets the stream (e.g. rejecting an unwanted push).
func (cs *ClientStream) Cancel() { cs.St.reset(ErrCodeCancel) }

// Failed reports whether the peer reset the stream before completion.
func (cs *ClientStream) Failed() bool { return cs.failed }

func (cs *ClientStream) fail(code ErrCode) {
	if cs.complete || cs.failed {
		return
	}
	cs.failed = true
	if cs.OnFailed != nil {
		cs.OnFailed(code)
	}
}

// Client wraps a client-side Core with request and push-handling helpers.
//
//repolint:pooled
type Client struct {
	Core *Core
	// OnPush decides whether to accept a pushed stream; returning false
	// cancels it with RST_STREAM(CANCEL). When accepting, the callback
	// may install OnData/OnComplete/OnFailed on the promised stream.
	// A nil OnPush accepts all pushes.
	OnPush func(parent *ClientStream, promised *ClientStream) (accept bool)
	// OnGoAway fires when the peer sends GOAWAY: streams above
	// lastStreamID were not and will not be processed. OnConnError fires
	// when the connection dies on a protocol violation. Both are cleared
	// by Reset, like OnPush.
	OnGoAway    func(cl *Client, lastStreamID uint32)
	OnConnError func(cl *Client, err ConnError)

	// issued/free recycle ClientStream wrappers across connections on a
	// pooled client (see Reset).
	issued []*ClientStream
	free   []*ClientStream
}

// NewClient builds a client connection with the given local settings.
// Setting local.EnablePush=false reproduces the paper's "no push"
// baseline: the server is told not to push at connection startup.
func NewClient(local Settings) *Client {
	c := &Client{Core: newCore(false, local)}
	// The client model reads no response header, so HEADERS matters
	// only when it ends a header-only response.
	c.Core.OnHeaders = func(st *Stream, _ []hpack.HeaderField, endStream bool) {
		if cs, _ := st.User.(*ClientStream); cs != nil && endStream {
			cs.finish()
		}
	}
	c.Core.OnData = func(st *Stream, data DataView, endStream bool) {
		cs, _ := st.User.(*ClientStream)
		if cs == nil {
			return
		}
		cs.bodyLen += data.Len()
		if cs.OnData != nil {
			cs.OnData(data)
		}
		if endStream {
			cs.finish()
		}
	}
	c.Core.OnPushPromise = clientOnPushPromise(c)
	c.Core.OnRST = func(st *Stream, code ErrCode) {
		if cs, _ := st.User.(*ClientStream); cs != nil {
			cs.fail(code)
		}
	}
	c.Core.OnGoAway = func(f *goAwayFrame) {
		if c.OnGoAway != nil {
			c.OnGoAway(c, f.LastStreamID)
		}
	}
	c.Core.OnConnError = func(err ConnError) {
		if c.OnConnError != nil {
			c.OnConnError(c, err)
		}
	}
	return c
}

func clientOnPushPromise(c *Client) func(parent, promised *Stream, fields []hpack.HeaderField) {
	return func(parent, promised *Stream, fields []hpack.HeaderField) {
		pcs, _ := parent.User.(*ClientStream)
		req, err := parseRequest(fields)
		if err != nil {
			promised.reset(ErrCodeProtocol)
			return
		}
		cs := c.newClientStream(promised, req)
		cs.Pushed = true
		promised.User = cs
		if c.OnPush != nil && !c.OnPush(pcs, cs) {
			cs.Cancel()
		}
	}
}

// Reset re-arms a pooled client for a fresh connection: the core, its
// codec state and every wrapper struct are recycled; the callbacks
// installed by NewClient are kept, OnPush is cleared.
func (c *Client) Reset(local Settings) {
	c.Core.reset(local)
	c.OnPush, c.OnGoAway, c.OnConnError = nil, nil, nil
	for _, cs := range c.issued {
		*cs = ClientStream{}
		c.free = append(c.free, cs)
	}
	c.issued = c.issued[:0]
}

func (c *Client) newClientStream(st *Stream, req Request) *ClientStream {
	var cs *ClientStream
	if n := len(c.free); n > 0 {
		cs = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		cs = &ClientStream{}
	}
	*cs = ClientStream{Client: c, St: st, Req: req}
	c.issued = append(c.issued, cs)
	return cs
}

func (cs *ClientStream) finish() {
	if cs.complete {
		return
	}
	cs.complete = true
	if cs.OnComplete != nil {
		cs.OnComplete(cs.bodyLen)
	}
}

// RequestOpts configures a client request.
type RequestOpts struct {
	// Priority, when non-nil, is sent with the HEADERS frame and shapes
	// the server's scheduling (Chromium builds exclusive chains here).
	Priority   *PriorityParam
	OnData     func(data DataView)
	OnComplete func(totalBody int)

	// Fields, when non-nil, is the prepare-time pre-built header list for
	// req (must equal req.Fields()); Pre is the matching pre-encoded
	// block, used when it lines up with the connection's encoder state.
	Fields []hpack.HeaderField
	Pre    *hpack.PreEncoded
}

// Request issues a GET-style request (no body).
func (c *Client) Request(req Request, opts RequestOpts) *ClientStream {
	fields := opts.Fields
	if fields == nil {
		fields = req.Fields()
	}
	st := c.Core.startRequest(fields, opts.Pre, opts.Priority)
	cs := c.newClientStream(st, req)
	cs.OnData = opts.OnData
	cs.OnComplete = opts.OnComplete
	st.User = cs
	return cs
}
