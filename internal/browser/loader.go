package browser

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/cssx"
	"repro/internal/h2"
	"repro/internal/hpack"
	"repro/internal/htmlx"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/page"
	"repro/internal/replay"
	"repro/internal/sim"
)

// ResourceTiming records one fetched resource for traces and dependency
// analysis.
type ResourceTiming struct {
	URL    string
	Kind   page.Kind
	Start  time.Duration // request issued / push adopted (absolute)
	End    time.Duration // last byte (absolute)
	Bytes  int
	Pushed bool
	Weight uint8
	Parent uint32
	// Failed marks a resource that terminally failed; Cause says why.
	Failed bool
	Cause  failCause
}

// Result is the outcome of one page load.
type Result struct {
	ConnectEnd       time.Duration // first connection's connectEnd (absolute)
	OnLoadAt         time.Duration // absolute onload time
	PLT              time.Duration // OnLoadAt - ConnectEnd (the paper's PLT)
	SpeedIndex       time.Duration
	FirstPaint       time.Duration // relative to ConnectEnd
	VisuallyComplete time.Duration

	// Outcome classifies the termination: Complete (onload, nothing
	// failed), Partial (page usable, some resources failed or the
	// horizon cut the load) or Failed (base document never arrived).
	Outcome         LoadOutcome
	FailedResources int
	Requests        int
	Conns           int

	PushedAccepted    int
	PushedCancelled   int
	PushedUnused      int
	BytesPushedUsed   int64
	BytesPushedWasted int64

	Progress []metrics.ProgressPoint
	Timings  []ResourceTiming
}

//repolint:pooled
type resource struct {
	ld  *Loader
	id  int32 // site intern ID, -1 for overflow (non-interned) resources
	url page.URL
	key string

	kind  page.Kind
	entry *replay.Entry

	discovered bool // referenced by the document
	requested  bool
	pushed     bool
	cancelled  bool

	loaded   bool // transfer complete
	ready    bool // post-processing complete (CSS parsed, imports ready)
	executed bool // JS ran

	// Recovery state (see recovery.go): the in-flight stream and its
	// connection, the retry count, the terminal failure mark and the
	// pending timeout timer.
	conn      *conn
	cs        *h2.ClientStream
	retries   int
	failed    bool
	failCause failCause
	tmo       sim.Timer

	start, end time.Duration
	bytes      int
	body       []byte // accumulated only for entry-less CSS/JS responses
	weight     uint8
	parent     uint32

	pendingImps int         // outstanding @imports
	importers   []*resource // sheets whose readiness waits on this one's

	// Persistent per-struct transport callbacks: resource structs are
	// pooled by the loader, so these closures (capturing only the stable
	// resource and loader pointers) are built once per struct and reused
	// by every run instead of allocating per fetch.
	onDataFn     func(data h2.DataView)
	onCompleteFn func(total int)
	onFailFn     func(code h2.ErrCode)
}

// reset scrubs the previous run's state, keeping what belongs to the
// pooled struct: its loader, its bound callbacks and slice capacity.
func (r *resource) reset() {
	*r = resource{
		ld: r.ld, importers: r.importers[:0],
		onDataFn: r.onDataFn, onCompleteFn: r.onCompleteFn, onFailFn: r.onFailFn,
	}
}

// content returns the resource's full body once loaded. Entry-backed
// resources read the immutable recorded body directly (the transport
// delivered exactly those bytes, zero-copy), so the loader never
// re-accumulates them; only entry-less responses carry a per-run copy.
func (r *resource) content() []byte {
	if r.entry != nil {
		return r.entry.Body
	}
	return r.body
}

//repolint:pooled
type conn struct {
	key        string
	client     *h2.Client
	bundle     *clientBundle
	end        *netem.End // transport handle, for teardown on death
	ready      bool
	dead       bool        // terminally failed; connFor dials a replacement
	pending    []*resource // queued fetches waiting for connectEnd
	connectEnd time.Duration
	mainID     uint32 // stream ID of the base document if on this conn

	// onDialFn is the connectEnd continuation handed to the farm, bound
	// to this pooled struct once (see Loader.newConn).
	onDialFn func(end *netem.End)
}

// reset scrubs the previous run's state, keeping the bound continuation
// and the pending list's capacity.
func (c *conn) reset() {
	*c = conn{pending: c.pending[:0], onDialFn: c.onDialFn}
}

// clientBundle pairs a pooled h2 client with its sim endpoint; both are
// recycled across runs so a warm dial re-attaches fully grown h2 state
// to a fresh transport.
type clientBundle struct {
	cl *h2.Client
	ep *h2.SimEndpoint
}

type milestone struct {
	offset int
	// exactly one of res/script/style is set; idx is the doc.Resources
	// index when res is set.
	res    *htmlx.Resource
	idx    int
	script *htmlx.InlineScript
	style  *htmlx.InlineStyle
}

type cssRef struct {
	offset int
	res    *resource
}

// Loader drives one page load inside the simulator. A Loader is
// reusable: Reset re-arms it for another run while keeping its slice
// tables, pooled resource structs and pooled h2 connections warm, so
// steady-state runs do not re-grow any of the per-run bookkeeping.
//
// Per-run resource and connection state lives in dense slice tables
// indexed by the prepared site's intern IDs (resource ID, connection
// group ID, font family ID); string-keyed maps survive only as the
// overflow path for names the prepared site could not intern. All
// static page state lives in the shared preparedPage; everything on the
// Loader is owned by the current run only.
//
//repolint:pooled
type Loader struct {
	s    *sim.Sim
	farm *replay.Farm
	site *replay.Site
	cfg  Config
	res  *Result

	pp *preparedPage
	in *replay.Interns

	// Resource tables: resTab is indexed by intern ID; extra holds
	// overflow resources; active lists every resource of the run in
	// creation order (both tables).
	resTab  []*resource
	extra   map[string]*resource
	active  []*resource
	resFree []*resource

	// Connection tables: connTab is indexed by intern connection-group
	// ID; connExtra holds overflow (unknown-host) connections; connActive
	// lists all of the run's conns.
	connTab    []*conn
	connExtra  map[string]*conn
	connActive []*conn
	connFree   []*conn

	clPool []*clientBundle // pooled h2 client connections

	// Font tables: fontTab is indexed by intern family ID; fonts is the
	// overflow for families outside the prepared ID space.
	fontTab []*resource
	fonts   map[string]*resource

	settings    h2.Settings // per-run client h2 settings
	onPushFn    func(parent, promised *h2.ClientStream) bool
	onGoAwayFn  func(cl *h2.Client, last uint32)
	onConnErrFn func(cl *h2.Client, err h2.ConnError)
	prio        h2.PriorityParam //repolint:keep scratch priority params, fully rewritten before each request

	mi      int
	scanIdx int // first doc.Resources index the preload scanner has not covered

	received     int
	htmlComplete bool
	parsePos     int
	parsing      bool
	parserBlock  *resource // sync script being waited for
	execBlocked  bool      // a script (inline or sync) is executing / awaiting CSSOM
	parserDone   bool

	// Single-flight continuation state: at most one parse, one script
	// execution (awaiting CSSOM, then charged) and one deferred-script
	// step is in flight at a time, and the parser or the deferred chain
	// waits for at most one script to arrive, so their parameters live
	// here instead of in per-event closures.
	parseTarget    int
	parseMilestone bool
	execR          *resource // nil for an inline script
	execOffset     int       // document offset of the script awaited or executing
	execCostMS     float64
	execAwaitsCSS  bool      // the execution waits for the sheets before execOffset
	scriptWait     *resource // parserBlock or deferred[defIdx], not yet arrived
	defIdx         int

	cssRefs []cssRef

	deferred []*resource

	mainHost    string
	unitPainted []bool // aligned with pp.lay.units
	painted     float64
	loadFired   bool
	done        bool // terminal outcome sealed; no further retries or timers
	failedCount int
	horizon     sim.Timer
	baseEntry   *replay.Entry
	baseRes     *resource
}

// New prepares a loader for the farm's site.
func New(s *sim.Sim, farm *replay.Farm, cfg Config) *Loader {
	ld := &Loader{}
	ld.Reset(s, farm, cfg)
	return ld
}

// Reset re-arms the loader for a new run on (a possibly different) farm
// and config. The previous run's Result must not be read after Reset:
// its slices are recycled into the new run's Result.
func (ld *Loader) Reset(s *sim.Sim, farm *replay.Farm, cfg Config) {
	ld.s, ld.farm, ld.site, ld.cfg = s, farm, farm.Site, cfg
	if ld.res == nil {
		ld.res = &Result{}
	} else {
		progress, timings := ld.res.Progress[:0], ld.res.Timings[:0]
		*ld.res = Result{Progress: progress, Timings: timings}
	}

	// Recycle the previous run's resources and connections.
	for _, r := range ld.active {
		r.reset()
		ld.resFree = append(ld.resFree, r)
	}
	ld.active = ld.active[:0]
	for _, c := range ld.connActive {
		if c.bundle != nil {
			ld.clPool = append(ld.clPool, c.bundle)
		}
		c.reset()
		ld.connFree = append(ld.connFree, c)
	}
	ld.connActive = ld.connActive[:0]

	// Size the dense tables from the prepared site's intern spaces.
	ld.in = farm.Site.Prepared().Interns()
	ld.resTab = clearedTable(ld.resTab, ld.in.NumResources())
	ld.connTab = clearedTable(ld.connTab, ld.in.NumConnGroups())
	ld.fontTab = clearedTable(ld.fontTab, ld.in.NumFamilies())
	clear(ld.extra)
	clear(ld.connExtra)
	clear(ld.fonts)

	ld.settings = h2.DefaultSettings()
	ld.settings.EnablePush = cfg.EnablePush
	ld.settings.InitialWindowSize = 6 * 1024 * 1024
	if ld.onPushFn == nil {
		ld.onPushFn = func(parent, promised *h2.ClientStream) bool {
			return ld.onPush(promised)
		}
		ld.onGoAwayFn = ld.onGoAway
		ld.onConnErrFn = ld.onConnError
	}

	ld.pp = nil
	ld.mi, ld.scanIdx = 0, 0
	ld.received, ld.htmlComplete, ld.parsePos = 0, false, 0
	ld.parsing, ld.parserBlock, ld.execBlocked, ld.parserDone = false, nil, false, false
	ld.parseTarget, ld.parseMilestone = 0, false
	ld.execR, ld.execOffset, ld.execCostMS, ld.execAwaitsCSS = nil, 0, 0, false
	ld.scriptWait, ld.defIdx = nil, 0
	ld.cssRefs = ld.cssRefs[:0]
	ld.deferred = ld.deferred[:0]
	ld.mainHost = ""
	ld.unitPainted = ld.unitPainted[:0]
	ld.painted = 0
	ld.loadFired = false
	ld.done = false
	ld.failedCount = 0
	ld.horizon = sim.Timer{}
	ld.baseEntry = nil
	ld.baseRes = nil
}

func clearedTable[T any](tab []*T, n int) []*T {
	if cap(tab) < n {
		return make([]*T, n)
	}
	tab = tab[:n]
	clear(tab)
	return tab
}

func (ld *Loader) newResource() *resource {
	if n := len(ld.resFree); n > 0 {
		r := ld.resFree[n-1]
		ld.resFree[n-1] = nil
		ld.resFree = ld.resFree[:n-1]
		return r
	}
	r := &resource{ld: ld}
	r.onDataFn = func(data h2.DataView) { r.ld.onChunk(r, data) }
	r.onCompleteFn = func(int) { r.ld.onLoaded(r) }
	r.onFailFn = func(code h2.ErrCode) { r.ld.onStreamFailed(r, code) }
	return r
}

// Result returns the load outcome; call after the simulation ran. The
// returned value is owned by the loader and recycled on Reset.
func (ld *Loader) Result() *Result { return ld.res }

// Start begins the navigation: dial the base origin and request the
// document. The caller then runs the simulator.
func (ld *Loader) Start() {
	base := ld.site.Base
	ld.mainHost = base.Authority
	ld.baseEntry = ld.site.DB.Lookup(base.Authority, base.Path)
	if ld.baseEntry == nil {
		return
	}
	ld.pp = preparedPageFor(ld.site, ld.baseEntry)
	if n := len(ld.pp.lay.units); cap(ld.unitPainted) >= n {
		ld.unitPainted = ld.unitPainted[:n]
		for i := range ld.unitPainted {
			ld.unitPainted[i] = false
		}
	} else {
		ld.unitPainted = make([]bool, n)
	}
	// Pre-register render-blocking CSS references (everything except
	// print stylesheets blocks paint of content after its reference).
	for _, pc := range ld.pp.cssRefs {
		res := ld.ensureRef(pc.idx, page.KindCSS)
		ld.cssRefs = append(ld.cssRefs, cssRef{offset: pc.offset, res: res})
	}

	r := ld.ensureResourceKey(base, ld.pp.baseKey, page.KindHTML)
	ld.baseRes = r
	r.discovered = true
	r.requested = true
	r.weight = weightHTML
	// Nothing is dialled before Start, so the connection is still in its
	// handshake: the navigation request is the first of its queue and
	// onDial starts the load's clock when it issues it.
	c := ld.connFor(base.Authority, -1)
	c.pending = append(c.pending, r)
}

// loadHorizon is the pooled-timer callback for the load horizon.
//
//repolint:hotpath
func loadHorizon(a any) {
	ld := a.(*Loader)
	ld.onHorizon(ld.res.ConnectEnd)
}

// onHorizon seals an unfinished load at the horizon: milestone metrics
// stay defined on the partial page, still-in-flight resources are
// recorded as horizon failures, and the outcome is Partial when the
// base document arrived, Failed otherwise.
func (ld *Loader) onHorizon(connectEnd time.Duration) {
	if ld.loadFired {
		return
	}
	ld.res.PLT = ld.cfg.MaxDuration
	if ld.baseRes != nil && ld.baseRes.loaded {
		ld.res.Outcome = OutcomePartial
	} else {
		ld.res.Outcome = OutcomeFailed
	}
	ld.markHorizonFailures()
	ld.finishVisuals(connectEnd + ld.cfg.MaxDuration)
	ld.terminate()
}

// --- resource bookkeeping ---

// reqFieldsFor returns the prepare-time request header list for an
// interned resource, nil otherwise (the h2 layer then builds it).
func (ld *Loader) reqFieldsFor(r *resource) []hpack.HeaderField {
	if r.id >= 0 {
		return ld.in.ReqFields(r.id)
	}
	return nil
}

func (ld *Loader) reqPreFor(r *resource) *hpack.PreEncoded {
	if r.id >= 0 {
		return ld.in.ReqPre(r.id)
	}
	return nil
}

// ensureResourceID returns (creating if needed) the resource for an
// interned ID: the hot path, a slice index.
//
//repolint:hotpath
func (ld *Loader) ensureResourceID(id int32, u page.URL, key string, kind page.Kind) *resource {
	if r := ld.resTab[id]; r != nil {
		return r
	}
	r := ld.initResource(u, key, kind)
	r.id = id
	ld.resTab[id] = r
	return r
}

func (ld *Loader) initResource(u page.URL, key string, kind page.Kind) *resource {
	r := ld.newResource()
	r.url, r.key, r.kind = u, key, kind
	r.entry = ld.site.DB.Lookup(u.Authority, u.Path)
	if r.entry != nil && kind == page.KindOther {
		r.kind = r.entry.Kind()
	}
	ld.active = append(ld.active, r)
	return r
}

// ensureResourceKey is ensureResource with the canonical key already
// computed; interned keys land in the dense table, others in the
// overflow map.
func (ld *Loader) ensureResourceKey(u page.URL, key string, kind page.Kind) *resource {
	if id, ok := ld.in.Lookup(key); ok {
		return ld.ensureResourceID(id, u, key, kind)
	}
	if r, ok := ld.extra[key]; ok {
		return r
	}
	r := ld.initResource(u, key, kind)
	r.id = -1
	if ld.extra == nil {
		ld.extra = map[string]*resource{}
	}
	ld.extra[key] = r
	return r
}

// ensureRef resolves document reference idx through the prepared page's
// pre-resolved intern ID when available.
func (ld *Loader) ensureRef(idx int, kind page.Kind) *resource {
	if id := ld.pp.refID[idx]; id >= 0 {
		return ld.ensureResourceID(id, ld.pp.refURL[idx], ld.pp.refKey[idx], kind)
	}
	return ld.ensureResourceKey(ld.pp.refURL[idx], ld.pp.refKey[idx], kind)
}

// ensureSheetRef resolves a stylesheet reference through its prepared
// intern ID when available.
func (ld *Loader) ensureSheetRef(id int32, u page.URL, key string, kind page.Kind) *resource {
	if id >= 0 {
		return ld.ensureResourceID(id, u, key, kind)
	}
	return ld.ensureResourceKey(u, key, kind)
}

func (ld *Loader) ensureResource(u page.URL, kind page.Kind) *resource {
	return ld.ensureResourceKey(u, u.String(), kind)
}

// lookupResource returns the run's resource for a canonical key, nil
// when none was created.
func (ld *Loader) lookupResource(key string) *resource {
	if id, ok := ld.in.Lookup(key); ok {
		return ld.resTab[id]
	}
	return ld.extra[key]
}

func classWeight(kind page.Kind, async bool) uint8 {
	switch kind {
	case page.KindHTML:
		return weightHTML
	case page.KindCSS:
		return weightCSS
	case page.KindFont:
		return weightFont
	case page.KindJS:
		if async {
			return weightJSAsync
		}
		return weightJSSync
	case page.KindImage:
		return weightImage
	}
	return weightOther
}

// fetch requests a resource unless it is already in flight (requested or
// adopted from a push).
//
//repolint:hotpath
func (ld *Loader) fetch(r *resource, async bool) {
	r.discovered = true
	if r.requested || (r.pushed && !r.cancelled) || r.loaded {
		return
	}
	if r.failed {
		return // terminally failed; a late discovery must not revive it
	}
	r.requested = true
	r.start = ld.s.Now()
	r.weight = classWeight(r.kind, async)
	group := int32(-1)
	if r.id >= 0 {
		group = ld.in.ConnGroupOf(r.id)
	}
	c := ld.connFor(r.url.Authority, group)
	if c.ready {
		ld.issueFetch(c, r)
	} else {
		c.pending = append(c.pending, r)
	}
}

// issueFetch sends the request for r on the connected c.
//
//repolint:hotpath
func (ld *Loader) issueFetch(c *conn, r *resource) {
	parent := uint32(0)
	if c.mainID != 0 {
		parent = c.mainID
	}
	r.parent = parent
	ld.prio = h2.PriorityParam{ParentID: parent, Weight: r.weight}
	cs := c.client.Request(h2.Request{
		Method: "GET", Scheme: r.url.Scheme, Authority: r.url.Authority, Path: r.url.Path,
	}, h2.RequestOpts{
		Priority:   &ld.prio,
		Fields:     ld.reqFieldsFor(r),
		Pre:        ld.reqPreFor(r),
		OnData:     r.onDataFn,
		OnComplete: r.onCompleteFn,
	})
	cs.OnFailed = r.onFailFn
	r.conn = c
	r.cs = cs
	if r == ld.baseRes {
		c.mainID = cs.St.ID
	}
	ld.res.Requests++
	ld.armTimeout(r)
}

//repolint:hotpath
func (ld *Loader) onChunk(r *resource, data h2.DataView) {
	if r == ld.baseRes {
		ld.received += data.Len()
		r.bytes += data.Len()
		ld.preloadScan()
		ld.advanceParser()
		return
	}
	r.bytes += data.Len()
	if r.entry == nil && (r.kind == page.KindCSS || r.kind == page.KindJS) {
		// The only bytes the loader keeps: a stylesheet or script the
		// recording has no entry for is parsed from what arrived.
		r.body = data.AppendTo(r.body)
	}
}

// connFor returns (dialling if needed) the coalesced connection for
// host. group is the host's intern connection group when the caller has
// it (-1 to resolve here); interned groups index the dense table,
// unknown hosts fall back to the overflow map.
//
//repolint:hotpath
func (ld *Loader) connFor(host string, group int32) *conn {
	if group < 0 {
		if g, ok := ld.in.ConnGroupOfHost(host); ok {
			group = g
		}
	}
	if group >= 0 {
		if c := ld.connTab[group]; c != nil && !c.dead {
			return c
		}
		c := ld.dial(host, ld.in.ConnKeyOf(group))
		ld.connTab[group] = c
		return c
	}
	key := ld.site.ConnKey(host)
	if c, ok := ld.connExtra[key]; ok && !c.dead {
		return c
	}
	c := ld.dial(host, key)
	if ld.connExtra == nil {
		ld.connExtra = map[string]*conn{}
	}
	ld.connExtra[key] = c
	return c
}

func (ld *Loader) newConn(key string) *conn {
	var c *conn
	if n := len(ld.connFree); n > 0 {
		c = ld.connFree[n-1]
		ld.connFree[n-1] = nil
		ld.connFree = ld.connFree[:n-1]
	} else {
		c = &conn{}
		c.onDialFn = func(end *netem.End) { ld.onDial(c, end) }
	}
	c.key = key
	ld.connActive = append(ld.connActive, c)
	return c
}

// dial opens the connection; onDial attaches a pooled h2 client at
// connectEnd.
//
//repolint:hotpath
func (ld *Loader) dial(host, key string) *conn {
	c := ld.newConn(key)
	ld.res.Conns++
	ld.farm.Dial(host, c.onDialFn)
	return c
}

// onDial is c's connectEnd: attach a pooled h2 client to the transport
// and issue the fetches queued during the handshake.
func (ld *Loader) onDial(c *conn, end *netem.End) {
	b := ld.getClientBundle()
	b.cl.OnPush = ld.onPushFn
	b.cl.OnGoAway = ld.onGoAwayFn
	b.cl.OnConnError = ld.onConnErrFn
	b.ep.Attach(b.cl.Core, end)
	c.bundle = b
	c.end = end
	c.client = b.cl
	c.ready = true
	c.connectEnd = ld.s.Now()
	if ld.res.Requests == 0 {
		// The load's first connection carries the navigation request: its
		// connectEnd is the origin of PLT and of the load horizon.
		ld.res.ConnectEnd = c.connectEnd
		ld.horizon = ld.s.AtTimer(c.connectEnd+ld.cfg.MaxDuration, loadHorizon, ld)
		ld.baseRes.start = c.connectEnd
	}
	for _, r := range c.pending {
		ld.issueFetch(c, r)
	}
	c.pending = c.pending[:0]
}

func (ld *Loader) getClientBundle() *clientBundle {
	if n := len(ld.clPool); n > 0 {
		b := ld.clPool[n-1]
		ld.clPool[n-1] = nil
		ld.clPool = ld.clPool[:n-1]
		b.cl.Reset(ld.settings)
		return b
	}
	return &clientBundle{cl: h2.NewClient(ld.settings), ep: &h2.SimEndpoint{}}
}

// promisedResource resolves a PUSH_PROMISE's request to the run's
// resource. A promise naming a recorded, interned entry — every promise
// a farm sends for a prepared site — goes through the same two-level
// (authority, path) lookup the farm serves from and lands on the dense
// table without building or parsing a URL string; anything else (a
// per-run scaled entry, a lookup that only matched by fallback, a name
// outside the prepared ID space) takes the string path. nil means the
// promised URL is malformed.
func (ld *Loader) promisedResource(req *h2.Request) *resource {
	if e := ld.site.DB.Lookup(req.Authority, req.Path); e != nil {
		if id, ok := ld.in.IDOfEntry(e); ok {
			if u := ld.in.URLOf(id); u.Scheme == req.Scheme && u.Authority == req.Authority && u.Path == req.Path {
				return ld.ensureResourceID(id, u, ld.in.KeyOf(id), page.KindFromPath(u.Path))
			}
		}
	}
	u, err := page.ParseURL(req.URL(), page.URL{})
	if err != nil {
		return nil
	}
	return ld.ensureResource(u, page.KindFromPath(u.Path))
}

// onPush decides whether to adopt a promised stream.
func (ld *Loader) onPush(promised *h2.ClientStream) bool {
	r := ld.promisedResource(&promised.Req)
	if r == nil {
		return false
	}
	if r.requested || r.loaded || (r.pushed && !r.cancelled) {
		// Duplicate of an in-flight or finished fetch: cancel, as a
		// browser with the object in cache would (Sec. 2.1).
		ld.res.PushedCancelled++
		return false
	}
	r.pushed = true
	r.start = ld.s.Now()
	r.weight = classWeight(r.kind, false)
	ld.res.PushedAccepted++
	promised.OnData = r.onDataFn
	promised.OnComplete = r.onCompleteFn
	promised.OnFailed = r.onFailFn
	r.conn = ld.connByClient(promised.Client)
	r.cs = promised
	ld.armTimeout(r)
	return true
}

// --- preload scanner ---

// preloadScan discovers resource references in all received (not
// necessarily parsed) bytes, modelling Chromium's lookahead scanner.
// References are covered exactly once: doc.Resources is in byte order,
// so a persistent index replaces the re-scan from the document start.
//
//repolint:hotpath
func (ld *Loader) preloadScan() {
	for ld.scanIdx < len(ld.pp.doc.Resources) {
		if ld.pp.doc.Resources[ld.scanIdx].Offset > ld.received {
			return
		}
		ld.discoverIdx(ld.scanIdx)
		ld.scanIdx++
	}
}

// discoverIdx fetches the resource behind document reference i, using
// the prepared page's pre-resolved URL, intern ID and kind.
func (ld *Loader) discoverIdx(i int) *resource {
	if !ld.pp.refOK[i] {
		return nil
	}
	ref := &ld.pp.doc.Resources[i]
	r := ld.ensureRef(i, ld.pp.refKind[i])
	ld.fetch(r, ref.Async || ref.Defer)
	return r
}

// --- parser ---

func (ld *Loader) computeDelay(ms float64) time.Duration {
	if ms < 0 {
		ms = 0
	}
	if j := ld.cfg.JitterFrac; j > 0 {
		ms *= 1 + (ld.s.Rand().Float64()*2-1)*j
	}
	return time.Duration(ms * float64(time.Millisecond))
}

//repolint:hotpath
func (ld *Loader) advanceParser() {
	if ld.parsing || ld.parserDone || ld.parserBlock != nil || ld.execBlocked || ld.pp == nil {
		return
	}
	target := len(ld.pp.doc.Raw)
	atMilestone := false
	if ld.mi < len(ld.pp.milestones) {
		target = ld.pp.milestones[ld.mi].offset
		atMilestone = true
	}
	if target > ld.received {
		// Cannot reach the next milestone yet: parse what we have.
		if ld.received <= ld.parsePos {
			return // wait for more bytes
		}
		ld.scheduleParse(ld.received, false)
		return
	}
	if target <= ld.parsePos {
		if atMilestone {
			ld.handleMilestone()
		} else {
			ld.finishParsing()
		}
		return
	}
	ld.scheduleParse(target, atMilestone)
}

// loaderParseDone is the pooled-event callback for scheduleParse; the
// parse parameters live on the loader (one parse in flight at a time).
func loaderParseDone(a any) {
	ld := a.(*Loader)
	ld.parsing = false
	ld.parsePos = ld.parseTarget
	ld.tryPaint()
	if ld.parseMilestone {
		ld.handleMilestone()
	} else {
		ld.advanceParser()
	}
}

func (ld *Loader) scheduleParse(to int, milestone bool) {
	ld.parsing = true
	ld.parseTarget, ld.parseMilestone = to, milestone
	d := ld.computeDelay(float64(to-ld.parsePos) / ld.cfg.HTMLParseRate)
	ld.s.AtCall(ld.s.Now()+d, loaderParseDone, ld)
}

func (ld *Loader) handleMilestone() {
	m := ld.pp.milestones[ld.mi]
	ld.mi++
	switch {
	case m.res != nil:
		r := ld.discoverIdx(m.idx)
		if r != nil && m.res.Tag == "script" {
			if m.res.Defer {
				ld.deferred = append(ld.deferred, r)
			} else if !m.res.Async {
				// Synchronous external script: parser-blocking.
				ld.blockOnScript(r, m.offset)
				return
			}
		}
	case m.script != nil:
		// Inline script: executes in place; needs CSSOM of prior sheets.
		ld.execAfterCSS(m.offset, float64(len(m.script.Content))/ld.cfg.JSExecRate, nil)
		return
	case m.style != nil:
		// Inline style: available with the document, negligible cost.
	}
	ld.advanceParser()
}

// blockOnScript pauses the parser until the script arrived and executed
// or terminally failed. A script that settled before the parser reached
// it runs now: scriptSettled has already been and gone.
//
//repolint:hotpath
func (ld *Loader) blockOnScript(r *resource, offset int) {
	ld.parserBlock, ld.execOffset = r, offset
	if r.loaded || r.failed {
		ld.runBlockingScript(r)
		return
	}
	ld.scriptWait = r
}

// runBlockingScript continues the parser-blocking script r, which has
// arrived or terminally failed.
func (ld *Loader) runBlockingScript(r *resource) {
	if r.failed {
		// Failed script: nothing executes; unblock the parser.
		ld.parserBlock = nil
		ld.checkLoad()
		ld.advanceParser()
		return
	}
	ld.execAfterCSS(ld.execOffset, ld.scriptCostMS(r), r)
}

// scriptCostMS is the execution charge of a loaded script.
func (ld *Loader) scriptCostMS(r *resource) float64 {
	cost := float64(len(r.content())) / ld.cfg.JSExecRate
	if r.entry != nil {
		cost += r.entry.Meta.ExecMS
	}
	return cost
}

// scriptSettled runs at the moment r finishes loading or terminally
// fails: if the parser or the deferred chain is waiting for r, it
// continues.
func (ld *Loader) scriptSettled(r *resource) {
	if ld.scriptWait != r {
		return
	}
	ld.scriptWait = nil
	if ld.parserBlock == r {
		ld.runBlockingScript(r)
	} else {
		ld.runDeferredScript(r)
	}
}

// loaderExecDone is the pooled-event callback for execAfterCSS's charged
// execution delay (one exec in flight at a time; execR may be nil for
// inline scripts).
func loaderExecDone(a any) {
	ld := a.(*Loader)
	r := ld.execR
	ld.execR = nil
	ld.execBlocked = false
	if r != nil {
		r.executed = true
		ld.parserBlock = nil
	}
	ld.checkLoad()
	ld.advanceParser()
}

// execAfterCSS waits until every stylesheet referenced before offset is
// ready, then charges the execution cost and resumes the parser.
//
//repolint:hotpath
func (ld *Loader) execAfterCSS(offset int, costMS float64, r *resource) {
	ld.execBlocked = true
	ld.execR, ld.execOffset, ld.execCostMS = r, offset, costMS
	ld.execAwaitsCSS = true
	ld.notifyCSSWaiters()
}

func (ld *Loader) cssReadyBefore(offset int) bool {
	for _, ref := range ld.cssRefs {
		if ref.offset < offset && ref.res.discovered && !ref.res.ready {
			return false
		}
	}
	return true
}

// notifyCSSWaiters starts the script execution waiting for the CSSOM
// (execAfterCSS) once every sheet before it is ready.
func (ld *Loader) notifyCSSWaiters() {
	if !ld.execAwaitsCSS || !ld.cssReadyBefore(ld.execOffset) {
		return
	}
	ld.execAwaitsCSS = false
	ld.s.AtCall(ld.s.Now()+ld.computeDelay(ld.execCostMS), loaderExecDone, ld)
}

func (ld *Loader) finishParsing() {
	if ld.parserDone || !ld.htmlComplete || ld.parsePos < len(ld.pp.doc.Raw) {
		return
	}
	ld.parserDone = true
	ld.runDeferred(0)
}

// loaderDeferredDone is the pooled-event callback for one deferred
// script's execution charge (deferred scripts run strictly in order).
func loaderDeferredDone(a any) {
	ld := a.(*Loader)
	r := ld.deferred[ld.defIdx]
	r.executed = true
	ld.runDeferred(ld.defIdx + 1)
}

func (ld *Loader) runDeferred(i int) {
	if i >= len(ld.deferred) {
		ld.tryPaint()
		ld.checkLoad()
		return
	}
	ld.defIdx = i
	if r := ld.deferred[i]; r.loaded || r.failed {
		ld.runDeferredScript(r)
	} else {
		ld.scriptWait = r
	}
}

// runDeferredScript continues the deferred chain at deferred[defIdx],
// which has arrived or terminally failed.
func (ld *Loader) runDeferredScript(r *resource) {
	if r.failed {
		// Failed deferred script: skip its execution, keep the chain
		// advancing so parserDone work still completes.
		ld.runDeferred(ld.defIdx + 1)
		return
	}
	ld.s.AtCall(ld.s.Now()+ld.computeDelay(ld.scriptCostMS(r)), loaderDeferredDone, ld)
}

// --- resource completion ---

// resourceCSSParsed is the pooled-event callback for a stylesheet's
// parse completion (several sheets may be parsing concurrently, so the
// argument is the resource itself).
func resourceCSSParsed(a any) {
	r := a.(*resource)
	r.ld.onCSSParsed(r)
}

// resourceJSExecuted is the pooled-event callback for an async or
// pushed-ahead script's execution completion.
func resourceJSExecuted(a any) {
	r := a.(*resource)
	r.executed = true
	r.ld.checkLoad()
}

//repolint:hotpath
func (ld *Loader) onLoaded(r *resource) {
	if r.loaded {
		return
	}
	r.loaded = true
	r.end = ld.s.Now()
	ld.disarmTimeout(r)
	r.cs = nil
	if r == ld.baseRes {
		ld.htmlComplete = true
		r.ready, r.executed = true, true
		ld.advanceParser()
		ld.checkLoad()
		return
	}
	switch r.kind {
	case page.KindCSS:
		d := ld.computeDelay(float64(len(r.content())) / ld.cfg.CSSParseRate)
		if r.entry != nil {
			d += ld.computeDelay(r.entry.Meta.ParseMS)
		}
		ld.s.AtCall(ld.s.Now()+d, resourceCSSParsed, r)
	case page.KindJS:
		r.ready = true
		if ld.parserBlock != r {
			// Async or pushed-ahead script: execute off the parser path.
			ld.s.AtCall(ld.s.Now()+ld.computeDelay(ld.scriptCostMS(r)), resourceJSExecuted, r)
		}
	default:
		r.ready = true
		r.executed = true
	}
	ld.scriptSettled(r)
	if r.ready {
		ld.releaseImporters(r)
	}
	ld.tryPaint()
	ld.checkLoad()
}

// sheetInfoFor returns the resource's resolved stylesheet references,
// from the prepared page when the resource is an untouched recorded
// entry fetched under its recorded URL, parsing per run otherwise
// (scaled overlay bodies, query-stripped fuzzy matches).
func (ld *Loader) sheetInfoFor(r *resource) *sheetInfo {
	if r.entry != nil && ld.pp.sheets != nil && r.url == r.entry.URL {
		if si, ok := ld.pp.sheets[r.entry]; ok {
			return si
		}
	}
	return buildSheetInfoIn(cssx.Parse(r.content()), r.url, ld.in)
}

func (ld *Loader) onCSSParsed(r *resource) {
	si := ld.sheetInfoFor(r)
	// Fonts and asset images become fetchable only now (they are not
	// preload-scannable), which is why the paper pushes "hidden" fonts.
	for _, f := range si.fonts {
		fr := ld.ensureSheetRef(f.id, f.u, f.key, page.KindFont)
		if f.famID >= 0 {
			if ld.fontTab[f.famID] == nil {
				ld.fontTab[f.famID] = fr
			}
		} else if _, ok := ld.fonts[f.family]; !ok {
			if ld.fonts == nil {
				ld.fonts = map[string]*resource{}
			}
			ld.fonts[f.family] = fr
		}
		ld.fetch(fr, false)
	}
	for _, a := range si.assets {
		ar := ld.ensureSheetRef(a.id, a.u, a.key, page.KindImage)
		ld.fetch(ar, true)
	}
	// @imports must be ready before this sheet counts as ready.
	if len(si.imports) > 0 {
		r.pendingImps = 0
		for i, imp := range si.imports {
			dup := false
			for j := 0; j < i; j++ {
				if si.imports[j].key == imp.key {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			ir := ld.ensureSheetRef(imp.id, imp.u, imp.key, page.KindCSS)
			if ir.ready {
				continue
			}
			// The imported sheet still needs its own parse and imports:
			// r is ready once ir is (or has terminally failed).
			r.pendingImps++
			ir.importers = append(ir.importers, r)
			ld.fetch(ir, false)
		}
		if r.pendingImps == 0 {
			ld.markCSSReady(r)
		}
		return
	}
	ld.markCSSReady(r)
}

// releaseImporters tells the sheets importing r that it is ready.
func (ld *Loader) releaseImporters(r *resource) {
	for _, imp := range r.importers {
		imp.pendingImps--
		if imp.pendingImps == 0 {
			ld.markCSSReady(imp)
		}
	}
	r.importers = r.importers[:0]
}

func (ld *Loader) markCSSReady(r *resource) {
	if r.ready {
		return
	}
	r.ready = true
	r.executed = true
	ld.releaseImporters(r)
	ld.notifyCSSWaiters()
	ld.tryPaint()
	ld.checkLoad()
}

// --- paint & load ---

//repolint:hotpath
func (ld *Loader) unitReady(i int, u *visualUnit) bool {
	if ld.parsePos < u.offset {
		return false
	}
	for _, ref := range ld.cssRefs {
		if ref.offset < u.offset && ref.res.discovered && !ref.res.ready {
			return false
		}
	}
	if u.isImage && u.imgURL != "" {
		var r *resource
		if id := ld.pp.unitImgID[i]; id >= 0 {
			r = ld.resTab[id]
		} else if key := ld.pp.unitImgKey[i]; key != "" {
			r = ld.lookupResource(key)
		}
		if r != nil && !r.loaded && !r.failed {
			return false
		}
	}
	if u.fontFam != "" {
		var fr *resource
		if id := ld.pp.unitFontID[i]; id >= 0 {
			fr = ld.fontTab[id]
		} else {
			fr = ld.fonts[u.fontFam]
		}
		if fr != nil && !fr.loaded && !fr.failed {
			return false
		}
		// If the font-face is not yet known, any pending CSS keeps the
		// text hidden via the css-ready check above; an unknown family
		// with all CSS ready paints with a fallback font.
	}
	return true
}

//repolint:hotpath
func (ld *Loader) tryPaint() {
	if ld.pp == nil || ld.pp.lay.totalATFArea == 0 {
		return
	}
	changed := false
	for i, u := range ld.pp.lay.units {
		if !ld.unitPainted[i] && ld.unitReady(i, u) {
			ld.unitPainted[i] = true
			ld.painted += u.area
			changed = true
		}
	}
	if !changed {
		return
	}
	now := ld.s.Now()
	frac := ld.painted / ld.pp.lay.totalATFArea
	rel := now - ld.res.ConnectEnd
	if len(ld.res.Progress) > 0 && ld.res.Progress[len(ld.res.Progress)-1].T == rel {
		ld.res.Progress[len(ld.res.Progress)-1].Fraction = frac
	} else {
		ld.res.Progress = append(ld.res.Progress, metrics.ProgressPoint{T: rel, Fraction: frac})
	}
	if ld.res.FirstPaint == 0 {
		ld.res.FirstPaint = rel
	}
	if frac >= 1 && ld.res.VisuallyComplete == 0 {
		ld.res.VisuallyComplete = rel
	}
}

// checkLoad fires onload when the document is parsed and every
// discovered resource has finished loading and executing.
//
//repolint:hotpath
func (ld *Loader) checkLoad() {
	if ld.done || ld.loadFired || !ld.parserDone {
		return
	}
	for _, r := range ld.active {
		if !r.discovered || r.cancelled || r.failed {
			continue
		}
		if !r.loaded || !r.ready || !r.executed {
			return
		}
	}
	ld.loadFired = true
	now := ld.s.Now()
	ld.res.OnLoadAt = now
	ld.res.PLT = now - ld.res.ConnectEnd
	if ld.failedCount == 0 {
		ld.res.Outcome = OutcomeComplete
	} else {
		ld.res.Outcome = OutcomePartial
	}
	ld.horizon.Cancel()
	ld.finishVisuals(now)
	ld.terminate()
}

// finishVisuals computes SpeedIndex and final stats.
func (ld *Loader) finishVisuals(endAt time.Duration) {
	rel := endAt - ld.res.ConnectEnd
	ld.res.SpeedIndex = metrics.SpeedIndex(ld.res.Progress, rel)
	if ld.res.VisuallyComplete == 0 {
		ld.res.VisuallyComplete = rel
	}
	// Push accounting.
	for _, r := range ld.active {
		if r.pushed && !r.cancelled {
			if r.discovered {
				ld.res.BytesPushedUsed += int64(r.bytes)
			} else {
				ld.res.PushedUnused++
				ld.res.BytesPushedWasted += int64(r.bytes)
			}
		}
	}
	// Timings, ordered by start.
	ld.res.Timings = ld.res.Timings[:0]
	for _, r := range ld.active {
		if r.start == 0 && !r.pushed && !r.requested {
			continue
		}
		ld.res.Timings = append(ld.res.Timings, ResourceTiming{
			URL: r.key, Kind: r.kind, Start: r.start, End: r.end,
			Bytes: r.bytes, Pushed: r.pushed && !r.cancelled,
			Weight: r.weight, Parent: r.parent,
			Failed: r.failed, Cause: r.failCause,
		})
	}
	slices.SortFunc(ld.res.Timings, func(a, b ResourceTiming) int {
		if a.Start != b.Start {
			return cmp.Compare(a.Start, b.Start)
		}
		return cmp.Compare(a.URL, b.URL)
	})
}
