package browser

import (
	"time"

	"repro/internal/h2"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/page"
	"repro/internal/replay"
	"repro/internal/sim"
)

// Snapshot/Restore capture the loader's full run state for the engine's
// fork-at-checkpoint replay. The same ownership contract as the other
// layers applies: snapshots own their slices and reuse them across
// calls; the *resource, *conn and *clientBundle pointers they hold are
// aliases whose structs Restore rewrites in place, so the transport
// callbacks bound to pooled resource structs and the h2 client wrappers
// bound to pooled bundles stay valid across a rewind. Each active
// connection's h2 client core is captured through h2.ClientSnapshot.

// resourceState is the captured contents of one resource.
type resourceState struct {
	r           *resource
	id          int32
	url         page.URL
	key         string
	kind        page.Kind
	entry       *replay.Entry
	discovered  bool
	requested   bool
	pushed      bool
	cancelled   bool
	loaded      bool
	ready       bool
	executed    bool
	conn        *conn
	cs          *h2.ClientStream
	retries     int
	failed      bool
	failCause   FailCause
	tmo         sim.Timer
	start, end  time.Duration
	bytes       int
	body        []byte
	weight      uint8
	parent      uint32
	pendingImps int
	hasLoadCBs  bool
	onLoaded    []func()
	hasCSSCBs   bool
	cssReadyCBs []func()
}

func scrubResourceState(ss *resourceState) {
	ss.r, ss.entry, ss.body = nil, nil, nil
	ss.conn, ss.cs, ss.tmo = nil, nil, sim.Timer{}
	ss.url, ss.key = page.URL{}, ""
	clear(ss.onLoaded)
	ss.onLoaded = ss.onLoaded[:0]
	clear(ss.cssReadyCBs)
	ss.cssReadyCBs = ss.cssReadyCBs[:0]
}

func (r *resource) snapshot(ss *resourceState) {
	ss.r = r
	ss.id, ss.url, ss.key = r.id, r.url, r.key
	ss.kind, ss.entry = r.kind, r.entry
	ss.discovered, ss.requested, ss.pushed, ss.cancelled = r.discovered, r.requested, r.pushed, r.cancelled
	ss.loaded, ss.ready, ss.executed = r.loaded, r.ready, r.executed
	ss.conn, ss.cs, ss.retries = r.conn, r.cs, r.retries
	ss.failed, ss.failCause, ss.tmo = r.failed, r.failCause, r.tmo
	ss.start, ss.end, ss.bytes = r.start, r.end, r.bytes
	// body grows monotonically within a run (never truncated until the
	// struct is recycled), so the slice header alone is an exact capture:
	// post-checkpoint appends land at or past len, never below it.
	ss.body = r.body
	ss.weight, ss.parent, ss.pendingImps = r.weight, r.parent, r.pendingImps
	ss.hasLoadCBs = r.onLoaded != nil
	ss.onLoaded = append(ss.onLoaded[:0], r.onLoaded...)
	ss.hasCSSCBs = r.cssReadyCBs != nil
	ss.cssReadyCBs = append(ss.cssReadyCBs[:0], r.cssReadyCBs...)
}

func (r *resource) restore(ld *Loader, ss *resourceState) {
	r.ld = ld
	r.id, r.url, r.key = ss.id, ss.url, ss.key
	r.kind, r.entry = ss.kind, ss.entry
	r.discovered, r.requested, r.pushed, r.cancelled = ss.discovered, ss.requested, ss.pushed, ss.cancelled
	r.loaded, r.ready, r.executed = ss.loaded, ss.ready, ss.executed
	r.conn, r.cs, r.retries = ss.conn, ss.cs, ss.retries
	r.failed, r.failCause, r.tmo = ss.failed, ss.failCause, ss.tmo
	r.start, r.end, r.bytes = ss.start, ss.end, ss.bytes
	r.body = ss.body
	r.weight, r.parent, r.pendingImps = ss.weight, ss.parent, ss.pendingImps
	r.onLoaded = restoreCBs(r.onLoaded, ss.onLoaded, ss.hasLoadCBs)
	r.cssReadyCBs = restoreCBs(r.cssReadyCBs, ss.cssReadyCBs, ss.hasCSSCBs)
	// onDataFn/onCompleteFn/onFailFn are persistent per-struct and untouched.
}

// restoreCBs rebuilds a callback list, preserving the nil-vs-empty
// distinction some consumers use as a "fired already" marker.
func restoreCBs(dst, src []func(), present bool) []func() {
	if !present {
		return nil
	}
	clear(dst)
	return append(dst[:0], src...)
}

// connState is the captured contents of one connection, including the
// h2 client snapshot when the connection's transport is attached.
type connState struct {
	c          *conn
	key        string
	client     *h2.Client
	bundle     *clientBundle
	end        *netem.End
	ready      bool
	dead       bool
	onReady    []func()
	pending    []*resource
	connectEnd time.Duration
	mainID     uint32
	cl         h2.ClientSnapshot
	ep         h2.EndpointSnapshot
}

func scrubConnState(cs *connState) {
	cs.c, cs.client, cs.bundle, cs.end = nil, nil, nil, nil
	cs.key = ""
	clear(cs.onReady)
	cs.onReady = cs.onReady[:0]
	clear(cs.pending)
	cs.pending = cs.pending[:0]
}

// kvRes / kvConn are captured overflow-map entries.
type kvRes struct {
	k string
	v *resource
}
type kvConn struct {
	k string
	v *conn
}

// resultState is the captured contents of the run's Result.
type resultState struct {
	scalars  Result // Progress/Timings cleared; slices captured separately
	progress []metrics.ProgressPoint
	timings  []ResourceTiming
}

// LoaderSnapshot is a deep copy of a Loader's run state.
type LoaderSnapshot struct {
	s    *sim.Sim
	farm *replay.Farm
	site *replay.Site
	cfg  Config
	res  resultState

	pp *preparedPage
	in *replay.Interns

	resTab  []*resource
	extra   []kvRes
	active  []resourceState
	resFree []*resource

	connTab    []*conn
	connExtra  []kvConn
	connActive []connState
	connFree   []*conn

	clPool []*clientBundle

	fontTab []*resource
	fonts   []kvRes

	settings    h2.Settings
	onPushFn    func(parent, promised *h2.ClientStream) bool
	onGoAwayFn  func(cl *h2.Client, last uint32)
	onConnErrFn func(cl *h2.Client, err h2.ConnError)

	mi      int
	scanIdx int

	received     int
	htmlComplete bool
	parsePos     int
	parsing      bool
	parserBlock  *resource
	execBlocked  bool
	parserDone   bool

	parseTarget    int
	parseMilestone bool
	execR          *resource
	defIdx         int

	cssRefs    []cssRef
	cssWaiters []cssWaiter
	deferred   []*resource

	mainHost    string
	unitPainted []bool
	painted     float64
	loadFired   bool
	done        bool
	failedCount int
	horizon     sim.Timer
	baseEntry   *replay.Entry
	baseRes     *resource
}

// Snapshot copies the loader's run state into dst.
func (ld *Loader) Snapshot(dst *LoaderSnapshot) {
	dst.s, dst.farm, dst.site, dst.cfg = ld.s, ld.farm, ld.site, ld.cfg

	dst.res.scalars = *ld.res
	dst.res.scalars.Progress, dst.res.scalars.Timings = nil, nil
	dst.res.progress = append(dst.res.progress[:0], ld.res.Progress...)
	dst.res.timings = append(dst.res.timings[:0], ld.res.Timings...)

	dst.pp, dst.in = ld.pp, ld.in

	dst.resTab = append(dst.resTab[:0], ld.resTab...)
	dst.extra = dst.extra[:0]
	for k, v := range ld.extra {
		dst.extra = append(dst.extra, kvRes{k, v})
	}
	dst.active = growStates(dst.active, len(ld.active), scrubResourceState)
	for i, r := range ld.active {
		r.snapshot(&dst.active[i])
	}
	dst.resFree = append(dst.resFree[:0], ld.resFree...)

	dst.connTab = append(dst.connTab[:0], ld.connTab...)
	dst.connExtra = dst.connExtra[:0]
	for k, v := range ld.connExtra {
		dst.connExtra = append(dst.connExtra, kvConn{k, v})
	}
	dst.connActive = growStates(dst.connActive, len(ld.connActive), scrubConnState)
	for i, c := range ld.connActive {
		cs := &dst.connActive[i]
		cs.c, cs.key, cs.client, cs.bundle = c, c.key, c.client, c.bundle
		cs.end, cs.dead = c.end, c.dead
		cs.ready, cs.connectEnd, cs.mainID = c.ready, c.connectEnd, c.mainID
		cs.onReady = append(cs.onReady[:0], c.onReady...)
		cs.pending = append(cs.pending[:0], c.pending...)
		if c.bundle != nil {
			c.bundle.cl.Snapshot(&cs.cl)
			c.bundle.ep.Snapshot(&cs.ep)
		}
	}
	dst.connFree = append(dst.connFree[:0], ld.connFree...)

	dst.clPool = append(dst.clPool[:0], ld.clPool...)

	dst.fontTab = append(dst.fontTab[:0], ld.fontTab...)
	dst.fonts = dst.fonts[:0]
	for k, v := range ld.fonts {
		dst.fonts = append(dst.fonts, kvRes{k, v})
	}

	dst.settings, dst.onPushFn = ld.settings, ld.onPushFn
	dst.onGoAwayFn, dst.onConnErrFn = ld.onGoAwayFn, ld.onConnErrFn

	dst.mi, dst.scanIdx = ld.mi, ld.scanIdx
	dst.received, dst.htmlComplete, dst.parsePos = ld.received, ld.htmlComplete, ld.parsePos
	dst.parsing, dst.parserBlock = ld.parsing, ld.parserBlock
	dst.execBlocked, dst.parserDone = ld.execBlocked, ld.parserDone
	dst.parseTarget, dst.parseMilestone = ld.parseTarget, ld.parseMilestone
	dst.execR, dst.defIdx = ld.execR, ld.defIdx

	dst.cssRefs = append(dst.cssRefs[:0], ld.cssRefs...)
	dst.cssWaiters = append(dst.cssWaiters[:0], ld.cssWaiters...)
	dst.deferred = append(dst.deferred[:0], ld.deferred...)

	dst.mainHost = ld.mainHost
	dst.unitPainted = append(dst.unitPainted[:0], ld.unitPainted...)
	dst.painted, dst.loadFired = ld.painted, ld.loadFired
	dst.done, dst.failedCount = ld.done, ld.failedCount
	dst.horizon, dst.baseEntry = ld.horizon, ld.baseEntry
	dst.baseRes = ld.baseRes
}

// growStates extends dst to n entries, keeping each entry's inner slice
// capacity, and scrubs the unused tail so it pins nothing.
func growStates[S any](dst []S, n int, scrub func(*S)) []S {
	for len(dst) < n {
		var zero S
		dst = append(dst, zero)
	}
	for i := n; i < len(dst); i++ {
		scrub(&dst[i])
	}
	return dst[:n]
}

// Restore rewinds the loader to the captured state. Resources,
// connections and their h2 clients are rewritten in place; objects
// created after the snapshot are dropped for the garbage collector, and
// free lists are rebuilt from the snapshot with a fresh scrub.
func (ld *Loader) Restore(snap *LoaderSnapshot) {
	ld.s, ld.farm, ld.site, ld.cfg = snap.s, snap.farm, snap.site, snap.cfg

	progress, timings := ld.res.Progress[:0], ld.res.Timings[:0]
	*ld.res = snap.res.scalars
	ld.res.Progress = append(progress, snap.res.progress...)
	ld.res.Timings = append(timings, snap.res.timings...)

	ld.pp, ld.in = snap.pp, snap.in

	ld.resTab = clearRestore(ld.resTab, snap.resTab)
	restoreResMap(&ld.extra, snap.extra)
	clear(ld.active)
	ld.active = ld.active[:0]
	for i := range snap.active {
		ss := &snap.active[i]
		ss.r.restore(ld, ss)
		ld.active = append(ld.active, ss.r)
	}
	clear(ld.resFree)
	ld.resFree = ld.resFree[:0]
	for _, r := range snap.resFree {
		od, oc, of := r.onDataFn, r.onCompleteFn, r.onFailFn
		*r = resource{ld: ld, onDataFn: od, onCompleteFn: oc, onFailFn: of}
		ld.resFree = append(ld.resFree, r)
	}

	ld.connTab = clearRestore(ld.connTab, snap.connTab)
	restoreConnMap(&ld.connExtra, snap.connExtra)
	clear(ld.connActive)
	ld.connActive = ld.connActive[:0]
	for i := range snap.connActive {
		cs := &snap.connActive[i]
		c := cs.c
		c.key, c.client, c.bundle = cs.key, cs.client, cs.bundle
		c.end, c.dead = cs.end, cs.dead
		c.ready, c.connectEnd, c.mainID = cs.ready, cs.connectEnd, cs.mainID
		clear(c.onReady)
		c.onReady = append(c.onReady[:0], cs.onReady...)
		clear(c.pending)
		c.pending = append(c.pending[:0], cs.pending...)
		if c.bundle != nil {
			c.bundle.cl.Restore(&cs.cl)
			c.bundle.ep.Restore(&cs.ep)
		}
		ld.connActive = append(ld.connActive, c)
	}
	clear(ld.connFree)
	ld.connFree = ld.connFree[:0]
	for _, c := range snap.connFree {
		clear(c.onReady)
		clear(c.pending)
		*c = conn{onReady: c.onReady[:0], pending: c.pending[:0]}
		ld.connFree = append(ld.connFree, c)
	}

	ld.clPool = clearRestore(ld.clPool, snap.clPool)

	ld.fontTab = clearRestore(ld.fontTab, snap.fontTab)
	restoreResMap(&ld.fonts, snap.fonts)

	ld.settings, ld.onPushFn = snap.settings, snap.onPushFn
	ld.onGoAwayFn, ld.onConnErrFn = snap.onGoAwayFn, snap.onConnErrFn

	ld.mi, ld.scanIdx = snap.mi, snap.scanIdx
	ld.received, ld.htmlComplete, ld.parsePos = snap.received, snap.htmlComplete, snap.parsePos
	ld.parsing, ld.parserBlock = snap.parsing, snap.parserBlock
	ld.execBlocked, ld.parserDone = snap.execBlocked, snap.parserDone
	ld.parseTarget, ld.parseMilestone = snap.parseTarget, snap.parseMilestone
	ld.execR, ld.defIdx = snap.execR, snap.defIdx

	ld.cssRefs = append(ld.cssRefs[:0], snap.cssRefs...)
	ld.cssWaiters = append(ld.cssWaiters[:0], snap.cssWaiters...)
	clear(ld.deferred)
	ld.deferred = append(ld.deferred[:0], snap.deferred...)

	ld.mainHost = snap.mainHost
	ld.unitPainted = append(ld.unitPainted[:0], snap.unitPainted...)
	ld.painted, ld.loadFired = snap.painted, snap.loadFired
	ld.done, ld.failedCount = snap.done, snap.failedCount
	ld.horizon, ld.baseEntry = snap.horizon, snap.baseEntry
	ld.baseRes = snap.baseRes
}

func clearRestore[T any](dst, src []*T) []*T {
	clear(dst)
	dst = dst[:0]
	return append(dst, src...)
}

func restoreResMap(m *map[string]*resource, kvs []kvRes) {
	clear(*m)
	if len(kvs) == 0 {
		return
	}
	if *m == nil {
		*m = make(map[string]*resource, len(kvs))
	}
	for _, kv := range kvs {
		(*m)[kv.k] = kv.v
	}
}

func restoreConnMap(m *map[string]*conn, kvs []kvConn) {
	clear(*m)
	if len(kvs) == 0 {
		return
	}
	if *m == nil {
		*m = make(map[string]*conn, len(kvs))
	}
	for _, kv := range kvs {
		(*m)[kv.k] = kv.v
	}
}
