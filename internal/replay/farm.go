package replay

import (
	"slices"
	"time"

	"repro/internal/h2"
	"repro/internal/hpack"
	"repro/internal/netem"
	"repro/internal/sim"
)

// Farm spawns the per-IP virtual origin servers for one page load and
// executes the push plan. One Farm serves exactly one simulated browser
// session (the testbed builds a fresh Farm per run, or resets a pooled
// one).
//
//repolint:pooled
type Farm struct {
	S   *sim.Sim
	Net *netem.Network
	// Site is the recorded site served this run.
	Site *Site
	// Plan is the strategy's push plan.
	Plan     Plan
	Settings h2.Settings
	// ThinkTime delays every response, emulating backend fetch time. The
	// paper assumes zero (Sec. 4.1).
	ThinkTime time.Duration

	// stallUntil black-holes dispatch until the given instant: requests
	// arriving inside the window have their serve deferred to the
	// window's end (fault injection, see Stall). Serve order stays FIFO
	// because deferred serve times are still nondecreasing.
	stallUntil time.Duration

	// NoPreEncode forces every header block onto the live-encoding path,
	// bypassing the prepare-time pre-encoded blocks. The wire bytes are
	// identical either way (pinned by TestFarmPreEncodeByteIdentical);
	// the knob exists for that test and for profiling the ablation.
	NoPreEncode bool

	// Stats accumulated over the session.
	BytesPushed  int64
	PushCount    int
	RequestCount int

	// resolved is the plan lowered onto the site's intern table (see
	// Plan.lowerOnto): shared, read-only, and looked up again only when
	// the (site, plan) pair changes, so a farm re-running the same
	// evaluation touches neither the plan's handle nor its lock.
	//
	//repolint:keep identity-keyed pointer; Reset re-resolves it only when the (site, plan) pair changed
	resolved *resolvedPlan

	// handler is the per-farm request dispatch closure, built once.
	//
	//repolint:keep built once, bound to this farm
	handler func(sw *h2.ServerStream, req h2.Request)

	// svQ is the FIFO of dispatched requests awaiting their serve event.
	// Every request is served asynchronously (at now+ThinkTime) through a
	// pooled event.
	svQ    []svReq
	svHead int

	// Pooled server connections: bundles move from pool to active on
	// Dial and back on Reset, so a warm farm re-dials without rebuilding
	// h2 state.
	srvPool   []*serverBundle
	srvActive []*serverBundle

	// dials holds the connections still in their handshake, each with the
	// continuation Dial was given; onConnectFn is onConnect bound once,
	// so dialling builds no closure.
	dials       []pendingDial
	onConnectFn func(c *netem.Conn) //repolint:keep built once, bound to this farm

	// criticalIDs is the reused per-serve interleave gate list.
	criticalIDs []uint32 //repolint:keep per-serve scratch, truncated to zero length at each use
	// pending is the reused per-serve pushed-stream list.
	pending []pendingPush //repolint:keep per-serve scratch, truncated to zero length at each use
}

//repolint:pooled
type serverBundle struct {
	srv *h2.Server
	ep  *h2.SimEndpoint //repolint:keep re-attached to a fresh transport end on Dial
}

// reset re-arms a pooled bundle's server for a new connection; the
// endpoint is rewired by Attach when the farm next dials.
func (b *serverBundle) reset(s h2.Settings, handler func(sw *h2.ServerStream, req h2.Request)) {
	b.srv.Reset(s, handler)
}

// pendingDial is one connection between Dial and its connectEnd.
type pendingDial struct {
	c     *netem.Conn
	ready func(clientEnd *netem.End)
}

// svReq is one dispatched request waiting in the serve FIFO.
type svReq struct {
	sw  *h2.ServerStream
	req h2.Request
}

type pendingPush struct {
	psw    *h2.ServerStream
	entry  *Entry
	pre    *hpack.PreEncoded
	seqPos int
}

// resolvedPlan is one plan lowered onto one site. It is built once by
// lowerPlan and never written afterwards: every farm replaying the
// (site, plan) pair, on any goroutine, reads the same value.
type resolvedPlan struct {
	site *Site
	// low is the handle of the plan this was lowered from. Holding it is
	// what makes the pointer comparison in resolvePlan sound: while any
	// farm still points at this lowering the handle cannot be collected,
	// so no later plan can be allocated at its address.
	low      *lowering
	triggers map[*Entry]*resolvedTrigger
}

// noPushes is the lowering of every plan without push lists. It does
// not depend on the site.
var noPushes = resolvedPlan{}

// resolvedTrigger is one trigger URL's serving program: the ordered,
// deduplicated, authoritative push list with critical flags, plus the
// pre-encoded header-block sequence for the canonical first serve on a
// pristine connection: PUSH_PROMISE blocks at positions 0..k-1, the
// trigger response at k, and push responses at k+1..2k. When the
// connection's encoder is anywhere else (pushes disabled, a different
// request served first), every block falls back to live encoding —
// byte-identical either way.
type resolvedTrigger struct {
	pushes    []*Entry
	critical  []bool
	nCritical int
	spec      InterleaveSpec
	hasSpec   bool

	ppPre     []hpack.PreEncoded
	respPre   hpack.PreEncoded
	pushResp  []hpack.PreEncoded
	respField []hpack.HeaderField
}

// NewFarm builds a farm for one run.
func NewFarm(s *sim.Sim, net *netem.Network, site *Site, plan Plan) *Farm {
	f := &Farm{}
	f.Reset(s, net, site, plan)
	return f
}

// Reset re-arms the farm for a new run, exactly as NewFarm would
// configure it: fresh stats, default settings, zero think time,
// pre-encoding enabled. The per-connection servers it spawned last run
// are recycled into the farm's pool (the previous simulator run is
// over, so nothing still references their transports).
func (f *Farm) Reset(s *sim.Sim, net *netem.Network, site *Site, plan Plan) {
	f.S, f.Net, f.Site, f.Plan = s, net, site, plan
	f.Settings = h2.DefaultSettings()
	f.ThinkTime = 0
	f.stallUntil = 0
	f.NoPreEncode = false
	f.BytesPushed, f.PushCount, f.RequestCount = 0, 0, 0
	if f.handler == nil {
		f.handler = f.dispatch
		f.onConnectFn = f.onConnect
	}
	clear(f.dials)
	f.dials = f.dials[:0]
	f.srvPool = append(f.srvPool, f.srvActive...)
	for i := range f.srvActive {
		f.srvActive[i] = nil
	}
	f.srvActive = f.srvActive[:0]
	clear(f.svQ)
	f.svQ, f.svHead = f.svQ[:0], 0
	f.resolvePlan()
}

// resolvePlan points the farm at the lowering of its (site, plan) pair,
// keeping the current one when neither changed.
func (f *Farm) resolvePlan() {
	if rp := f.resolved; rp != nil && rp.low != nil && rp.low == f.Plan.low && rp.site == f.Site {
		return
	}
	f.resolved = f.Plan.lowerOnto(f.Site)
}

// lowerPlan lowers plan onto site's intern table: push lists as entries,
// critical membership as flags, and the pre-encoded first-serve
// header-block sequence of every trigger. It is a pure function of its
// arguments and the only place a plan is lowered.
func lowerPlan(site *Site, plan Plan) *resolvedPlan {
	rp := &resolvedPlan{
		site: site, low: plan.low,
		triggers: make(map[*Entry]*resolvedTrigger, len(plan.Push)),
	}
	in := site.Prepared().Interns()
	for trigger, pushURLs := range plan.Push {
		te := site.DB.Get(trigger)
		if te == nil || te.URL.String() != trigger {
			// Pushes fire only when the served entry's canonical URL is
			// the plan key, exactly as the old per-request string match.
			continue
		}
		spec, hasSpec := plan.Interleave[trigger]
		rt := &resolvedTrigger{spec: spec, hasSpec: hasSpec}

		// Order: critical URLs first (in spec order), then the remaining
		// push URLs in plan order, deduplicated by canonical URL string —
		// interned IDs make the sets bitsets, with a tiny overflow list
		// for URLs outside the prepared ID space.
		inCritical := newBitset(in.NumResources())
		var critOverflow []string
		mark := func(b *bitset, over *[]string, u string) {
			if id, ok := in.Lookup(u); ok {
				b.set(id)
			} else {
				*over = append(*over, u)
			}
		}
		has := func(b *bitset, over []string, u string) bool {
			if id, ok := in.Lookup(u); ok {
				return b.has(id)
			}
			for _, v := range over {
				if v == u {
					return true
				}
			}
			return false
		}
		for _, u := range spec.Critical {
			mark(inCritical, &critOverflow, u)
		}
		seen := newBitset(in.NumResources())
		var seenOverflow []string
		add := func(u string, critical bool) {
			if has(seen, seenOverflow, u) {
				return
			}
			mark(seen, &seenOverflow, u)
			pe := site.DB.Get(u)
			if pe == nil {
				return
			}
			// A server may only push content it is authoritative for.
			if !site.Authoritative(te.URL.Authority, pe.URL.Authority) {
				return
			}
			rt.pushes = append(rt.pushes, pe)
			rt.critical = append(rt.critical, critical)
			if critical {
				rt.nCritical++
			}
		}
		for _, u := range spec.Critical {
			if contains(pushURLs, u) {
				add(u, true)
			}
		}
		for _, u := range pushURLs {
			add(u, has(inCritical, critOverflow, u))
		}

		preEncodeTrigger(in, te, rt)
		rp.triggers[te] = rt
	}
	return rp
}

// preEncodeTrigger encodes the trigger's first-serve block sequence on a
// scratch encoder, in exactly the order serve emits it.
func preEncodeTrigger(in *Interns, te *Entry, rt *resolvedTrigger) {
	enc := hpack.NewEncoder()
	rt.ppPre = make([]hpack.PreEncoded, len(rt.pushes))
	for i, pe := range rt.pushes {
		id, ok := in.IDOfEntry(pe)
		if !ok {
			// A pushed entry outside the prepared ID space (cannot happen
			// for recorded sites, defensive): pre-encode from scratch-built
			// fields so the sequence stays aligned.
			rt.ppPre[i] = enc.PreEncodeBlock(h2.Request{
				Method: "GET", Scheme: pe.URL.Scheme,
				Authority: pe.URL.Authority, Path: pe.URL.Path,
			}.Fields())
			continue
		}
		rt.ppPre[i] = enc.PreEncodeBlock(in.ReqFields(id))
	}
	if fields, _, ok := in.RespFieldsOf(te); ok {
		// Interned (immutable) trigger entries pre-encode their response;
		// a per-run scaled trigger keeps respField nil and encodes live.
		rt.respField = fields
		rt.respPre = enc.PreEncodeBlock(rt.respField)
	} else {
		enc.PreEncodeBlock(h2.ResponseFields(nil, te.Status, te.ContentType, len(te.Body)))
	}
	rt.pushResp = make([]hpack.PreEncoded, len(rt.pushes))
	for i, pe := range rt.pushes {
		if fields, _, ok := in.RespFieldsOf(pe); ok {
			rt.pushResp[i] = enc.PreEncodeBlock(fields)
		} else {
			rt.pushResp[i] = enc.PreEncodeBlock(h2.ResponseFields(nil, pe.Status, pe.ContentType, len(pe.Body)))
		}
	}
}

// Dial opens a fresh connection to the origin server replaying host.
// ready fires at connectEnd with the client-side transport end; the
// caller attaches its h2 client there. Every server on the farm shares
// the emulated access link, so cross-connection contention is modelled.
// Server connections are drawn from the farm's pool: a warm farm
// re-dials with fully recycled h2 state.
//
//repolint:hotpath
func (f *Farm) Dial(host string, ready func(clientEnd *netem.End)) {
	f.dials = append(f.dials, pendingDial{c: f.Net.Dial(f.onConnectFn), ready: ready})
}

// onConnect is the connectEnd continuation of every Dial: it attaches a
// pooled server to c and hands the client end to the dial's ready.
func (f *Farm) onConnect(c *netem.Conn) {
	i := slices.IndexFunc(f.dials, func(d pendingDial) bool { return d.c == c })
	ready := f.dials[i].ready
	f.dials = slices.Delete(f.dials, i, i+1)
	b := f.getServer()
	b.ep.Attach(b.srv.Core, c.ServerEnd())
	ready(c.ClientEnd())
}

//repolint:hotpath
func (f *Farm) getServer() *serverBundle {
	var b *serverBundle
	if n := len(f.srvPool); n > 0 {
		b = f.srvPool[n-1]
		f.srvPool[n-1] = nil
		f.srvPool = f.srvPool[:n-1]
		b.reset(f.Settings, f.handler)
	} else {
		b = &serverBundle{srv: h2.NewServer(f.Settings, f.handler), ep: &h2.SimEndpoint{}}
	}
	f.srvActive = append(f.srvActive, b)
	return b
}

// dispatch enqueues the request and schedules its serve at
// now+ThinkTime through a pooled event. Service is uniformly
// asynchronous: enqueue order equals serve order (admission times are
// nondecreasing and the FIFO breaks ties by scheduling sequence).
func (f *Farm) dispatch(sw *h2.ServerStream, req h2.Request) {
	f.RequestCount++
	f.svQ = append(f.svQ, svReq{sw: sw, req: req})
	at := f.S.Now()
	if at < f.stallUntil {
		at = f.stallUntil
	}
	f.S.AtCall(at+f.ThinkTime, serveStep, f)
}

// serveStep is the pooled serve event: pop the FIFO head, serve it.
//
//repolint:hotpath
func serveStep(arg any) { arg.(*Farm).serveNext() }

func (f *Farm) serveNext() {
	r := f.svQ[f.svHead]
	f.svQ[f.svHead] = svReq{}
	f.svHead++
	switch {
	case f.svHead == len(f.svQ):
		f.svQ, f.svHead = f.svQ[:0], 0
	case f.svHead > 64 && 2*f.svHead >= len(f.svQ):
		n := copy(f.svQ, f.svQ[f.svHead:])
		clear(f.svQ[n:])
		f.svQ, f.svHead = f.svQ[:n], 0
	}
	f.serve(r.sw, r.req)
}

//repolint:hotpath
func (f *Farm) serve(sw *h2.ServerStream, req h2.Request) {
	entry := f.Site.DB.Lookup(req.Authority, req.Path)
	if entry == nil {
		sw.Respond(404, "text/plain", []byte("not found in record database"))
		return
	}
	in := f.Site.Prepared().Interns()
	rt := f.resolved.triggers[entry]
	if rt == nil {
		// No pushes triggered: a plain response. Prepared entries use the
		// interned header list and (on a pristine connection) the
		// pre-encoded block; per-run scaled copies take the live path.
		if fields, pre, ok := in.RespFieldsOf(entry); ok && !f.NoPreEncode {
			sw.RespondPre(fields, pre, 0, entry.Body)
		} else {
			sw.Respond(entry.Status, entry.ContentType, entry.Body)
		}
		return
	}

	// Push burst: PUSH_PROMISE blocks occupy sequence positions
	// 0..len-1, the trigger response len, push responses len+1..2len.
	// The pre-encoded sequence is only valid while every block of it is
	// emitted verbatim: once the trigger response falls back to live
	// encoding (a per-run scaled trigger entry whose content-length
	// differs from resolve time), the dynamic table diverges from the
	// pre-encode-time table even though the block counter still lines
	// up, so every later block of the sequence must go live too.
	preOK := !f.NoPreEncode && rt.respField != nil
	pushes := f.pending[:0]
	f.criticalIDs = f.criticalIDs[:0]
	var prevID uint32
	for i, pe := range rt.pushes {
		var reqFields []hpack.HeaderField
		var ppPre *hpack.PreEncoded
		if id, ok := in.IDOfEntry(pe); ok {
			reqFields = in.ReqFields(id)
		}
		if !f.NoPreEncode {
			// PUSH_PROMISE blocks precede the trigger response, so they
			// are safe even when the response will live-encode.
			ppPre = &rt.ppPre[i]
		}
		psw := sw.PushPre(h2.Request{
			Method: "GET", Scheme: pe.URL.Scheme,
			Authority: pe.URL.Authority, Path: pe.URL.Path,
		}, reqFields, ppPre, i)
		if psw == nil {
			break // client disabled push
		}
		if prevID != 0 {
			sw.Server.Core.Tree.Update(psw.St.ID, h2.PriorityParam{ParentID: prevID, Weight: h2.DefaultWeight})
		}
		prevID = psw.St.ID
		if rt.critical[i] {
			f.criticalIDs = append(f.criticalIDs, psw.St.ID)
		}
		pushes = append(pushes, pendingPush{
			psw: psw, entry: pe, pre: &rt.pushResp[i], seqPos: len(rt.pushes) + 1 + i,
		})
		f.PushCount++
		f.BytesPushed += int64(len(pe.Body))
	}
	if rt.hasSpec && len(f.criticalIDs) > 0 {
		sw.Interleave(rt.spec.OffsetBytes, f.criticalIDs)
	}
	if preOK {
		sw.RespondPre(rt.respField, &rt.respPre, len(rt.pushes), entry.Body)
	} else {
		sw.Respond(entry.Status, entry.ContentType, entry.Body)
	}
	for _, p := range pushes {
		if fields, _, ok := in.RespFieldsOf(p.entry); ok && preOK {
			p.psw.RespondPre(fields, p.pre, p.seqPos, p.entry.Body)
		} else {
			p.psw.Respond(p.entry.Status, p.entry.ContentType, p.entry.Body)
		}
	}
	f.pending = pushes[:0]
}

// Stall black-holes the farm for d from now: requests dispatched
// inside the window are served only once it ends (fault injection).
// Responses already handed to the h2 cores are unaffected — a stall
// models the backend going dark, not the wire.
func (f *Farm) Stall(d time.Duration) {
	if until := f.S.Now() + d; until > f.stallUntil {
		f.stallUntil = until
	}
}

// InjectGoAway makes every active server connection send GOAWAY(NO_ERROR)
// and stop accepting new streams (fault injection). Returns the number
// of connections signalled.
func (f *Farm) InjectGoAway() int {
	n := 0
	for _, b := range f.srvActive {
		if !b.srv.Core.GoingAway() {
			b.srv.Core.GoAway(h2.ErrCodeNo)
			n++
		}
	}
	return n
}

// InjectPushResets aborts every in-flight pushed stream on every active
// server connection with RST_STREAM(CANCEL) (fault injection). Returns
// the number of streams reset.
func (f *Farm) InjectPushResets() int {
	n := 0
	for _, b := range f.srvActive {
		n += b.srv.Core.AbortPushes(h2.ErrCodeCancel)
	}
	return n
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// EntryURL is a helper returning the absolute URL string for a
// host/path pair if recorded.
func (f *Farm) EntryURL(host, path string) string {
	e := f.Site.DB.Lookup(host, path)
	if e == nil {
		return ""
	}
	return e.URL.String()
}
