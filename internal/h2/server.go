package h2

import (
	"fmt"
	"strconv"

	"repro/internal/hpack"
)

// Request is the HTTP/2 pseudo-header view of a request.
type Request struct {
	Method    string
	Scheme    string
	Authority string
	Path      string
	Header    []hpack.HeaderField // non-pseudo fields
}

// URL returns scheme://authority/path. (Concatenation, not Sprintf:
// this runs once per adopted push on the hot path.)
func (r Request) URL() string {
	return r.Scheme + "://" + r.Authority + r.Path
}

// Fields encodes the request as an HPACK header list, pseudo-headers
// first as required by RFC 7540 Section 8.1.2.1.
func (r Request) Fields() []hpack.HeaderField {
	fs := []hpack.HeaderField{
		{Name: ":method", Value: r.Method},
		{Name: ":scheme", Value: r.Scheme},
		{Name: ":authority", Value: r.Authority},
		{Name: ":path", Value: r.Path},
	}
	return append(fs, r.Header...)
}

// parseRequest extracts a Request from a decoded header list.
func parseRequest(fields []hpack.HeaderField) (Request, error) {
	var r Request
	for _, f := range fields {
		switch f.Name {
		case ":method":
			r.Method = f.Value
		case ":scheme":
			r.Scheme = f.Value
		case ":authority":
			r.Authority = f.Value
		case ":path":
			r.Path = f.Value
		default:
			if len(f.Name) > 0 && f.Name[0] == ':' {
				return r, fmt.Errorf("h2: unknown pseudo-header %q", f.Name)
			}
			r.Header = append(r.Header, f)
		}
	}
	if r.Method == "" || r.Path == "" {
		return r, fmt.Errorf("h2: incomplete request pseudo-headers")
	}
	return r, nil
}

// Server wraps a server-side Core with request dispatch and response /
// push helpers. It is transport-agnostic.
//
//repolint:pooled
type Server struct {
	Core *Core
	// Handler is invoked when a request's headers are complete. Bodies on
	// requests are ignored (the testbed replays GETs).
	Handler func(sw *ServerStream, req Request)

	// fscratch is the reused response header list (encoded before Respond
	// returns, so one scratch per connection suffices).
	//
	//repolint:keep reused scratch; Respond rebuilds it from length zero each call
	fscratch []hpack.HeaderField
	// issued/free recycle ServerStream wrappers across connections on a
	// pooled server (see Reset).
	issued []*ServerStream
	free   []*ServerStream
}

// NewServer builds a server connection with the given local settings.
func NewServer(local Settings, handler func(sw *ServerStream, req Request)) *Server {
	s := &Server{Core: newCore(true, local), Handler: handler}
	s.Core.OnHeaders = func(st *Stream, fields []hpack.HeaderField, endStream bool) {
		req, err := parseRequest(fields)
		if err != nil {
			s.Core.streamError(st.ID, ErrCodeProtocol)
			return
		}
		sw := s.newServerStream(st, req)
		st.User = sw
		if s.Handler != nil {
			s.Handler(sw, req)
		}
	}
	return s
}

// Reset re-arms a pooled server for a fresh connection: the core, its
// codec state and every wrapper struct are recycled; the dispatch
// closure installed by NewServer is kept.
func (s *Server) Reset(local Settings, handler func(sw *ServerStream, req Request)) {
	s.Core.reset(local)
	s.Handler = handler
	for _, sw := range s.issued {
		*sw = ServerStream{}
		s.free = append(s.free, sw)
	}
	s.issued = s.issued[:0]
}

func (s *Server) newServerStream(st *Stream, req Request) *ServerStream {
	var sw *ServerStream
	if n := len(s.free); n > 0 {
		sw = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		sw = &ServerStream{}
	}
	*sw = ServerStream{Server: s, St: st, Req: req}
	s.issued = append(s.issued, sw)
	return sw
}

// ServerStream is the server's handle on one request (or push) stream.
type ServerStream struct {
	Server *Server
	St     *Stream
	Req    Request
}

// ResponseFields assembles the header list Respond would send, appended
// onto dst (prepare-time callers pre-build and pre-encode these).
func ResponseFields(dst []hpack.HeaderField, status int, ctype string, bodyLen int) []hpack.HeaderField {
	dst = append(dst, hpack.HeaderField{Name: ":status", Value: strconv.Itoa(status)})
	if ctype != "" {
		dst = append(dst, hpack.HeaderField{Name: "content-type", Value: ctype})
	}
	return append(dst, hpack.HeaderField{Name: "content-length", Value: strconv.Itoa(bodyLen)})
}

// Respond sends a complete response on the stream.
func (sw *ServerStream) Respond(status int, ctype string, body []byte, extra ...hpack.HeaderField) {
	s := sw.Server
	fields := ResponseFields(s.fscratch[:0], status, ctype, len(body))
	fields = append(fields, extra...)
	s.fscratch = fields[:0]
	sw.respond(fields, nil, 0, body)
}

// RespondPre is Respond with prepare-time pre-built header fields and an
// optional pre-encoded block valid at sequence position seqPos. The
// wire bytes are identical to Respond with the same values.
func (sw *ServerStream) RespondPre(fields []hpack.HeaderField, pe *hpack.PreEncoded, seqPos int, body []byte) {
	sw.respond(fields, pe, seqPos, body)
}

func (sw *ServerStream) respond(fields []hpack.HeaderField, pe *hpack.PreEncoded, seqPos int, body []byte) {
	if len(body) == 0 {
		sw.Server.Core.sendResponseHeaders(sw.St, fields, pe, seqPos, true)
		return
	}
	sw.Server.Core.sendResponseHeaders(sw.St, fields, pe, seqPos, false)
	sw.St.queueData(body)
	sw.St.closeOut()
}

// Push announces a pushed response for req on this stream and returns the
// promised stream's handle, on which Respond must then be called. It
// returns nil when the client disabled push (SETTINGS_ENABLE_PUSH=0).
func (sw *ServerStream) Push(req Request) *ServerStream {
	return sw.PushPre(req, nil, nil, 0)
}

// PushPre is Push with prepare-time pre-built request fields (nil falls
// back to req.Fields()) and an optional pre-encoded PUSH_PROMISE block
// valid at sequence position seqPos.
func (sw *ServerStream) PushPre(req Request, fields []hpack.HeaderField, pe *hpack.PreEncoded, seqPos int) *ServerStream {
	if fields == nil {
		fields = req.Fields()
	}
	st := sw.Server.Core.push(sw.St, fields, pe, seqPos)
	if st == nil {
		return nil
	}
	psw := sw.Server.newServerStream(st, req)
	st.User = psw
	return psw
}

// Interleave pauses this stream's body after offset bytes and resumes it
// once every stream in after has finished sending. This is the paper's
// modified h2o scheduler: the base document is cut at a byte offset (e.g.
// just past </head>), critical pushed resources are sent, then the
// document continues (Sec. 5, Fig. 5a).
func (sw *ServerStream) Interleave(offset int, after []uint32) {
	sw.St.pauseOutputAt(offset)
	sw.St.resumeAfter(after)
}
