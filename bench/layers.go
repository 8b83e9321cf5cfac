package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cssx"
	"repro/internal/fault"
	"repro/internal/h2"
	"repro/internal/hpack"
	"repro/internal/htmlx"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/page"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/sim"
)

// Per-layer measurements: each function below times calls into one
// package's public functions, on that package's own unit of work, so a
// move in an end-to-end metric can be attributed to the layer that
// caused it. Every timing is host time and the median of several
// repetitions after one untimed warm-up repetition.

// layerMetric is one named per-layer value.
type layerMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerSet collects named values with their units: the per-layer
// metrics of a traced run, and a run's diagnostics.
type layerSet map[string]layerMetric

func (ls layerSet) put(name string, value float64, unit string) {
	ls[name] = layerMetric{Value: value, Unit: unit}
}

// effort sizes the per-layer measurements.
type effort struct {
	// reps is how many timed repetitions each median is over.
	reps int
	// div divides every fixed amount of work (events scheduled, bytes
	// sent, loop counts).
	div int
	// tracePasses is how often the traced run repeats the pageload-warm
	// matrix per scenario.
	tracePasses int
}

var (
	// fullEffort is the traced run's.
	fullEffort = effort{reps: 7, div: 1, tracePasses: 3}
	// quickEffort is the tier-1 test's, which needs every metric
	// emitted, not measured well.
	quickEffort = effort{reps: 1, div: 50, tracePasses: 1}
)

// n scales a full-effort amount of work.
func (e effort) n(full int) int { return max(1, full/e.div) }

// medianSeconds runs fn once untimed, then reps times, and returns the
// median duration in seconds.
func (e effort) medianSeconds(fn func()) float64 {
	fn()
	ds := make([]float64, e.reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0).Seconds()
	}
	return median(ds)
}

// sink keeps results alive so the compiler cannot drop a measured call.
var sink any

// --- sim ---

type bareState struct {
	s         *sim.Sim
	scheduled int
	total     int
	lcg       uint64
}

// delay is a cheap deterministic spread of timestamps so the heap does
// real ordering work.
func (b *bareState) delay() time.Duration {
	b.lcg = b.lcg*6364136223846793005 + 1442695040888963407
	return time.Duration(b.lcg>>44) + 1
}

func bareNoop() {}

func bareFire(arg any) {
	b := arg.(*bareState)
	if b.scheduled >= b.total {
		return
	}
	b.scheduled++
	b.s.AtCall(b.s.Now()+b.delay(), bareFire, b)
	if b.scheduled%10 == 0 {
		// One event in ten is a cancelled timer, as netem's
		// retransmission timers are on a lossless link.
		b.s.After(b.delay(), bareNoop).Cancel()
	}
}

// simBareNsPerEvent schedules and dispatches events on a bare Sim whose
// queue holds depth live events throughout.
func simBareNsPerEvent(e effort, depth int) float64 {
	events := max(e.n(1_000_000), 2*depth)
	s := sim.New(1)
	sec := e.medianSeconds(func() {
		s.Reset(1)
		b := &bareState{s: s, total: events, lcg: 1}
		for i := 0; i < depth; i++ {
			b.scheduled++
			s.AtCall(b.delay(), bareFire, b)
		}
		if n := s.Run(); n != events {
			panic(fmt.Sprintf("bare sim executed %d events, want %d", n, events))
		}
	})
	return sec * 1e9 / float64(events)
}

// --- netem ---

const netemBytes = 8 << 20

type netemResult struct {
	nsPerSegment     float64
	eventsPerSegment float64
	retransmitShare  float64
	dropShare        float64
}

// netemOneWay times an 8 MB server-to-client transfer into a sink
// receiver, split evenly over the networks reset returns (one flat
// network, or the clients of a shared-bottleneck topology).
func netemOneWay(e effort, s *sim.Sim, clients int, reset func() []*netem.Network, drops func() int64, mss int) (netemResult, error) {
	per := e.n(netemBytes) / clients
	body := make([]byte, per)
	var (
		events   int
		rtx      int64
		received int
		ends     []*netem.End
	)
	sec := e.medianSeconds(func() {
		s.Reset(1)
		nets := reset()
		received, ends = 0, ends[:0]
		for _, n := range nets {
			n.Dial(func(c *netem.Conn) {
				c.ClientEnd().SetReceiver(func(b []byte) { received += len(b) })
				ends = append(ends, c.ServerEnd())
				c.ServerEnd().Write(body)
			})
		}
		events = s.Run()
		rtx = 0
		for _, end := range ends {
			rtx += end.Retransmits()
		}
	})
	if want := per * clients; received != want {
		return netemResult{}, fmt.Errorf("netem transfer delivered %d of %d bytes", received, want)
	}
	segments := float64(len(ends) * ((per + mss - 1) / mss))
	sent := segments + float64(rtx)
	return netemResult{
		nsPerSegment:     sec * 1e9 / segments,
		eventsPerSegment: float64(events) / segments,
		retransmitShare:  float64(rtx) / sent,
		dropShare:        float64(drops()) / sent,
	}, nil
}

func netemFlat(e effort, prof netem.Profile) (netemResult, error) {
	s := sim.New(1)
	n := netem.New(s, prof)
	return netemOneWay(e, s, 1, func() []*netem.Network {
		n.Reset(prof)
		return []*netem.Network{n}
	}, n.Drops, prof.MSS)
}

func netemTwoHop(e effort, sp netem.SharedProfile) (netemResult, error) {
	s := sim.New(1)
	topo := netem.NewTopology(s, sp)
	nets := make([]*netem.Network, sp.Clients)
	return netemOneWay(e, s, sp.Clients, func() []*netem.Network {
		topo.Reset(sp)
		for i := range nets {
			nets[i] = topo.Client(i)
		}
		return nets
	}, topo.SharedDrops, sp.Access.MSS)
}

func layerNetem(e effort, ls layerSet) error {
	lossless, err := netemFlat(e, scenario.DSL().Profile)
	if err != nil {
		return err
	}
	lossy, err := netemFlat(e, scenario.LossyWiFi().Profile)
	if err != nil {
		return err
	}
	sp := scenario.Household().Shared
	sp.Clients = 16
	twohop, err := netemTwoHop(e, sp)
	if err != nil {
		return err
	}
	ls.put("netem.lossless_ns_per_segment", lossless.nsPerSegment, "ns")
	ls.put("netem.lossy_ns_per_segment", lossy.nsPerSegment, "ns")
	ls.put("netem.twohop_ns_per_segment", twohop.nsPerSegment, "ns")
	ls.put("netem.events_per_segment", lossless.eventsPerSegment, "count")
	ls.put("netem.retransmit_share", lossy.retransmitShare, "share")
	ls.put("netem.drop_share", twohop.dropShare, "share")
	return nil
}

// --- hpack ---

// headerLists returns the request and response header lists of every
// recorded resource of site, in intern order.
func headerLists(site *replay.Site) (lists [][]hpack.HeaderField, pre []*hpack.PreEncoded) {
	in := site.Prepared().Interns()
	for id := int32(0); id < int32(in.NumResources()); id++ {
		lists = append(lists, in.ReqFields(id))
		pre = append(pre, in.ReqPre(id))
		if e := in.EntryOf(id); e != nil {
			if fields, pe, ok := in.RespFieldsOf(e); ok {
				lists = append(lists, fields)
				pre = append(pre, pe)
			}
		}
	}
	return lists, pre
}

func layerHpack(e effort, ls layerSet, site *replay.Site) error {
	lists, pre := headerLists(site)
	plain := 0
	for _, fields := range lists {
		for _, f := range fields {
			plain += len(f.Name) + len(f.Value)
		}
	}
	// One connection's worth of blocks, encoded and decoded in sequence
	// so the dynamic table does what it does on a real connection.
	enc := hpack.NewEncoder()
	var blocks [][]byte
	encodeS := e.medianSeconds(func() {
		enc.Reset()
		blocks = blocks[:0]
		for _, fields := range lists {
			blocks = append(blocks, append([]byte(nil), enc.EncodeBlock(fields)...))
		}
	})
	dec := hpack.NewDecoder()
	var decodeErr error
	decodeS := e.medianSeconds(func() {
		dec.Reset()
		for _, b := range blocks {
			fields, err := dec.DecodeBlock(b)
			if err != nil {
				decodeErr = err
			}
			sink = fields
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("hpack decode of the encoder's own blocks: %w", decodeErr)
	}
	// The pre-encode twin: each list as a connection's first block, live
	// versus replayed from the prepare-time encoding.
	var out []byte
	liveS := e.medianSeconds(func() {
		for _, fields := range lists {
			enc.Reset()
			out = append(out[:0], enc.EncodeBlock(fields)...)
		}
	})
	applied := 0
	preS := e.medianSeconds(func() {
		applied = 0
		for _, pe := range pre {
			enc.Reset()
			if enc.CanUsePreEncoded(*pe, 0) {
				enc.ApplyPreEncoded(*pe)
				out = append(out[:0], pe.Block...)
				applied++
			}
		}
	})
	if applied != len(pre) {
		return fmt.Errorf("hpack: only %d of %d pre-encoded first blocks applied on a pristine encoder", applied, len(pre))
	}
	sink = out
	mb := float64(plain) / 1e6
	ls.put("hpack.encode_mb_per_s", mb/encodeS, "MB/s")
	ls.put("hpack.decode_mb_per_s", mb/decodeS, "MB/s")
	ls.put("hpack.live_encode_ns_per_block", liveS*1e9/float64(len(lists)), "ns")
	ls.put("hpack.preencoded_apply_ns_per_block", preS*1e9/float64(len(pre)), "ns")
	return nil
}

// --- h2 ---

const (
	loopbackRequests = 48
	loopbackBody     = 64 << 10
)

// loopback is a client Core and a server Core exchanging frames in
// memory, with no simulator and no network in between.
type loopback struct {
	cl     *h2.Client
	srv    *h2.Server
	body   []byte
	chunks [][]byte
	done   int
	// wire, when non-nil, accumulates the server-to-client bytes.
	wire *[]byte
	// appendS accumulates the host time spent inside the server's
	// AppendWrite when timeAppend is set.
	timeAppend bool
	appendS    float64
	appendB    int
}

func newLoopback() *loopback {
	lb := &loopback{body: make([]byte, loopbackBody)}
	clSettings := h2.DefaultSettings()
	clSettings.InitialWindowSize = 6 << 20 // the browser model's window
	lb.cl = h2.NewClient(clSettings)
	lb.srv = h2.NewServer(h2.DefaultSettings(), nil)
	return lb
}

// exchange opens a fresh connection, issues the requests and pumps
// frames both ways until neither side has anything left to send.
func (lb *loopback) exchange() error {
	clSettings := lb.cl.Core.LocalSettings()
	lb.cl.Reset(clSettings)
	lb.srv.Reset(h2.DefaultSettings(), func(sw *h2.ServerStream, req h2.Request) {
		sw.Respond(200, "application/octet-stream", lb.body)
	})
	lb.done, lb.appendS, lb.appendB = 0, 0, 0
	lb.cl.Core.Start()
	lb.srv.Core.Start()
	for i := 0; i < loopbackRequests; i++ {
		lb.cl.Request(h2.Request{Method: "GET", Scheme: "https", Authority: "bench.test", Path: "/r"},
			h2.RequestOpts{OnComplete: func(int) { lb.done++ }})
	}
	for moved := true; moved; {
		moved = false
		for {
			lb.chunks = lb.cl.Core.AppendWrite(lb.chunks[:0], 0)
			if len(lb.chunks) == 0 {
				break
			}
			moved = true
			for _, c := range lb.chunks {
				lb.srv.Core.Recv(c)
			}
		}
		for {
			if lb.timeAppend {
				t0 := time.Now()
				lb.chunks = lb.srv.Core.AppendWrite(lb.chunks[:0], 0)
				lb.appendS += time.Since(t0).Seconds()
			} else {
				lb.chunks = lb.srv.Core.AppendWrite(lb.chunks[:0], 0)
			}
			if len(lb.chunks) == 0 {
				break
			}
			moved = true
			for _, c := range lb.chunks {
				lb.appendB += len(c)
				if lb.wire != nil {
					*lb.wire = append(*lb.wire, c...)
				}
				lb.cl.Core.Recv(c)
			}
		}
	}
	if lb.done != loopbackRequests {
		return fmt.Errorf("h2 loopback completed %d of %d requests", lb.done, loopbackRequests)
	}
	return nil
}

func layerH2(e effort, ls layerSet) error {
	lb := newLoopback()
	var err error
	run := func() {
		if e := lb.exchange(); e != nil {
			err = e
		}
	}
	loopS := e.medianSeconds(run)
	if err != nil {
		return err
	}
	frames := float64(lb.cl.Core.FramesSent + lb.srv.Core.FramesSent)
	ls.put("h2.loopback_ns_per_frame", loopS*1e9/frames, "ns")

	lb.timeAppend = true
	var appendRates []float64
	for i := 0; i < e.reps; i++ {
		run()
		appendRates = append(appendRates, float64(lb.appendB)/1e6/lb.appendS)
	}
	lb.timeAppend = false
	ls.put("h2.append_write_mb_per_s", median(appendRates), "MB/s")

	var wire []byte
	lb.wire = &wire
	run()
	lb.wire = nil
	if err != nil {
		return err
	}
	var fr h2.FrameReader
	var readErr error
	readS := e.medianSeconds(func() {
		fr.Reset()
		for off := 0; off < len(wire); off += 1460 {
			fr.Feed(wire[off:min(off+1460, len(wire))])
			for {
				f, err := fr.Next()
				if err != nil {
					readErr = err
				}
				if f == nil {
					break
				}
			}
		}
	})
	if readErr != nil {
		return fmt.Errorf("h2 frame reader on AppendWrite's own bytes: %w", readErr)
	}
	ls.put("h2.frame_read_mb_per_s", float64(len(wire))/1e6/readS, "MB/s")

	// Priority tree: the life of 100 streams as the browser model drives
	// them — bind, chain behind the previous stream, serve in 16 KB
	// turns, remove.
	const streams = 100
	tree := h2.NewPriorityTree()
	sts := make([]*h2.Stream, streams)
	left := make([]int, streams)
	for i := range sts {
		sts[i] = &h2.Stream{ID: uint32(2*i + 1)}
	}
	sendable := func(st *h2.Stream) bool { return left[(st.ID-1)/2] > 0 }
	ops := 0
	treeS := e.medianSeconds(func() {
		tree.Reset()
		ops = 0
		for i, st := range sts {
			tree.Bind(st)
			left[i] = 4
			var parent uint32
			if i > 0 && i%4 != 0 {
				parent = sts[i-1].ID
			}
			tree.Update(st.ID, h2.PriorityParam{ParentID: parent, Weight: uint8(100 + i%100), Exclusive: i%8 == 1})
			ops += 2
		}
		for {
			st := tree.Next(sendable)
			ops++
			if st == nil {
				break
			}
			tree.Charge(st.ID, 16<<10)
			ops++
			i := (st.ID - 1) / 2
			if left[i]--; left[i] == 0 {
				tree.Remove(st.ID)
				ops++
			}
		}
		if tree.Len() != 0 {
			panic("priority tree not drained")
		}
	})
	ls.put("h2.priority_ops_per_s", float64(ops)/treeS, "1/s")
	return nil
}

// --- analysis and generation: corpus, htmlx, cssx, replay, strategy ---

// freshIndex hands out corpus indices no other part of the harness
// uses, so corpus.Generate's memo cannot turn a cold measurement warm.
type freshIndex struct{ next int }

func (f *freshIndex) site() *replay.Site {
	f.next++
	return corpus.Generate(corpus.RandomProfile(), 10_000+f.next, corpusSeed)
}

func layerAnalysis(e effort, ls layerSet, fresh *freshIndex) {
	// Generation: fresh indices per repetition.
	const genSites = 4
	genS := e.medianSeconds(func() {
		for i := 0; i < genSites; i++ {
			sink = fresh.site()
		}
	})
	ls.put("corpus.generate_ms_per_site", genS*1e3/genSites, "ms")

	// Parsers, on the documents and stylesheets of generated sites.
	var htmls, sheets [][]byte
	htmlBytes, cssBytes := 0, 0
	for i := 0; i < genSites; i++ {
		for _, e := range corpus.Generate(corpus.RandomProfile(), i, corpusSeed).DB.Entries() {
			switch e.Kind() {
			case page.KindHTML:
				htmls = append(htmls, e.Body)
				htmlBytes += len(e.Body)
			case page.KindCSS:
				sheets = append(sheets, e.Body)
				cssBytes += len(e.Body)
			}
		}
	}
	htmlS := e.medianSeconds(func() {
		for _, b := range htmls {
			sink = htmlx.Parse(b)
		}
	})
	cssS := e.medianSeconds(func() {
		for _, b := range sheets {
			sink = cssx.Parse(b)
		}
	})
	ls.put("htmlx.parse_mb_per_s", float64(htmlBytes)/1e6/htmlS, "MB/s")
	ls.put("cssx.parse_mb_per_s", float64(cssBytes)/1e6/cssS, "MB/s")

	// First Prepared() on sites nobody has touched.
	const prepSites = 4
	prepS := make([]float64, 0, e.reps*prepSites)
	for i := 0; i < e.reps*prepSites; i++ {
		site := fresh.site()
		t0 := time.Now()
		site.Prepared()
		prepS = append(prepS, time.Since(t0).Seconds())
	}
	ls.put("replay.prepare_us_per_site", median(prepS)*1e6, "us")

	// Strategy compilation: the six Sec. 5 strategies on the modelled w1
	// and on one generated site, cold (fresh sites) and again on the same
	// sites (every analysis memoised on the prepared site).
	sts := core.PopularStrategies()
	var cold, memo []float64
	for i := 0; i < e.reps; i++ {
		sites := []*replay.Site{corpus.PopularSite("w1"), fresh.site()}
		apply := func() float64 {
			t0 := time.Now()
			for _, site := range sites {
				for _, st := range sts {
					s, _ := st.Apply(site, nil)
					sink = s
				}
			}
			return time.Since(t0).Seconds() / float64(len(sites)*len(sts))
		}
		cold = append(cold, apply())
		memo = append(memo, apply())
	}
	ls.put("strategy.compile_cold_us", median(cold)*1e6, "us")
	ls.put("strategy.compile_memo_us", median(memo)*1e6, "us")
}

// --- scenario, fault ---

func layerScenario(e effort, ls layerSet, seed int64) {
	n := int64(e.n(20_000))
	dsl := scenario.DSL()
	deriveS := e.medianSeconds(func() {
		for i := int64(0); i < n; i++ {
			sink = dsl.Derive(seed + i)
		}
	})
	ls.put("scenario.derive_ns", deriveS*1e9/float64(n), "ns")

	// ApplySiteInto on the one library scenario that rescales
	// third-party bodies per run. Each Conditions may be applied once
	// (it consumes its RNG stream), so they are derived outside the
	// timed region.
	inet := scenario.Internet()
	site := corpus.Generate(corpus.RandomProfile(), 0, corpusSeed)
	applies := e.n(200)
	conds := make([]*scenario.Conditions, applies)
	var scratch scenario.SiteScratch
	fill := func() {
		for i := range conds {
			conds[i] = inet.Derive(seed + int64(i))
		}
	}
	fill()
	for _, c := range conds { // warms the overlay's buffers
		c.ApplySiteInto(site, &scratch)
	}
	var applyS []float64
	for r := 0; r < e.reps; r++ {
		fill()
		t0 := time.Now()
		for _, c := range conds {
			sink = c.ApplySiteInto(site, &scratch)
		}
		applyS = append(applyS, time.Since(t0).Seconds())
	}
	ls.put("scenario.apply_site_us", median(applyS)*1e6/float64(applies), "us")

	fams := fault.Families()
	rounds := int64(e.n(5_000))
	faultS := e.medianSeconds(func() {
		for i := int64(0); i < rounds; i++ {
			for _, f := range fams {
				sink = f.Spec.Derive(seed + i)
			}
		}
	})
	ls.put("fault.derive_ns", faultS*1e9/float64(rounds*int64(len(fams))), "ns")
}

// --- metrics, shard ---

func layerCodecs(e effort, ls layerSet) error {
	n := e.n(100_000)
	value := func(i int) time.Duration { return time.Duration(200+i%1800) * time.Millisecond }
	sampleS := e.medianSeconds(func() {
		var s metrics.Sample
		for i := 0; i < n; i++ {
			s.Add(value(i))
		}
		sink = s.Median()
	})
	var sk metrics.Sketch
	sketchS := e.medianSeconds(func() {
		sk.Reset()
		for i := 0; i < n; i++ {
			sk.Add(value(i))
		}
	})
	ls.put("metrics.sample_add_ns", sampleS*1e9/float64(n), "ns")
	ls.put("metrics.sketch_add_ns", sketchS*1e9/float64(n), "ns")

	// Merging per-worker cells, as the population sweep does at the end.
	const cells = 64
	parts := make([]metrics.Sketch, cells)
	for c := range parts {
		for i := 0; i < 2000; i++ {
			parts[c].Add(value(i*cells + c))
		}
	}
	var total metrics.Sketch
	mergeS := e.medianSeconds(func() {
		total.Reset()
		for c := range parts {
			total.MergeFrom(&parts[c])
		}
	})
	ls.put("metrics.sketch_merge_us", mergeS*1e6/cells, "us")

	// Shard codec: a result stream of per-site payloads shaped like the
	// sweep drivers' (an index, three float/int vectors, a sketch).
	units := e.n(2_000)
	floats := []float64{-12.5, 3.25, 0, 18.75, -4.5}
	ints := []int64{12, 48, 0, 96, 7}
	var stream bytes.Buffer
	var payload []byte
	var encErr error
	encodeS := e.medianSeconds(func() {
		stream.Reset()
		sw := shard.NewStreamWriter(&stream)
		for u := 0; u < units; u++ {
			payload = shard.AppendUvarint(payload[:0], uint64(u))
			payload = shard.AppendFloat64s(payload, floats)
			payload = shard.AppendFloat64s(payload, floats)
			payload = shard.AppendInt64s(payload, ints)
			payload = shard.AppendSketch(payload, &parts[u%cells])
			if err := sw.Frame(shard.FrameResult, payload); err != nil {
				encErr = err
			}
		}
		if err := sw.End(); err != nil {
			encErr = err
		}
	})
	if encErr != nil {
		return fmt.Errorf("shard encode: %w", encErr)
	}
	wire := append([]byte(nil), stream.Bytes()...)
	var decErr error
	decodeS := e.medianSeconds(func() {
		sr := shard.NewStreamReader(bytes.NewReader(wire))
		seen := 0
		for {
			kind, p, err := sr.Next()
			if err != nil {
				decErr = err
				return
			}
			if kind == shard.FrameEnd {
				break
			}
			_, rest, err := shard.SplitResult(p)
			if err != nil {
				decErr = err
				return
			}
			r := shard.NewReader(rest)
			r.Float64s()
			r.Float64s()
			r.Int64s()
			r.Sketch()
			if err := r.Close(); err != nil {
				decErr = err
				return
			}
			seen++
		}
		if seen != units {
			decErr = fmt.Errorf("decoded %d of %d results", seen, units)
		}
	})
	if decErr != nil {
		return fmt.Errorf("shard decode of the encoder's own stream: %w", decErr)
	}
	mb := float64(len(wire)) / 1e6
	ls.put("shard.encode_mb_per_s", mb/encodeS, "MB/s")
	ls.put("shard.decode_mb_per_s", mb/decodeS, "MB/s")
	return nil
}

// --- core: load cost, fork ablation, executors ---

func layerCore(e effort, ls layerSet, seed int64, fresh *freshIndex) error {
	inputs, err := warmInputs(seed, corpusSeed)
	if err != nil {
		return err
	}

	// Cold loads: a fresh RunContext per load on prepared sites, against
	// the warm loads the traced run times (see layerTrace).
	var coldS []float64
	for _, in := range inputs {
		t0 := time.Now()
		r := in.tb.RunOnce(in.site, in.plan, 0)
		coldS = append(coldS, time.Since(t0).Seconds())
		sink = r
	}
	ls.put("core.cold_load_us", median(coldS)*1e6, "us")

	// First load on a site nobody has prepared, minus a warm load of the
	// same site on the same context.
	rc := core.NewRunContext()
	tb := core.NewTestbed()
	tb.Seed = seed
	var extra []float64
	for i := 0; i < e.reps; i++ {
		site := fresh.site()
		t0 := time.Now()
		tb.RunOnceWith(rc, site, replay.NoPush(), 0)
		t1 := time.Now()
		tb.RunOnceWith(rc, site, replay.NoPush(), 0)
		t2 := time.Now()
		extra = append(extra, (t1.Sub(t0) - t2.Sub(t1)).Seconds())
	}
	ls.put("browser.first_load_extra_us", median(extra)*1e6, "us")

	// Fork-at-divergence where it should shine: the paper's 31
	// repetitions, sequentially, with the checkpoint cache on and off.
	scs, err := seededScenarios(sweepPaperScenarios, seed)
	if err != nil {
		return err
	}
	sweep := func(noFork bool) (float64, digest, error) {
		sc := sweepPaperScale
		sc.Sites, sc.Runs = e.n(sc.Sites), max(3, e.n(sc.Runs))
		sc.Seed, sc.Jobs, sc.NoFork = corpusSeed, 1, noFork
		t0 := time.Now()
		tabs, err := core.ScenarioSweep(scs, sc)
		return time.Since(t0).Seconds(), tablesDigest(tabs), err
	}
	if _, _, err := sweep(false); err != nil { // warms the corpus and analysis memos
		return err
	}
	core.ResetForkStats()
	onS, onDigest, err := sweep(false)
	if err != nil {
		return err
	}
	hit := core.ReadForkStats().HitRate()
	offS, offDigest, err := sweep(true)
	if err != nil {
		return err
	}
	if onDigest != offDigest {
		return fmt.Errorf("sweep-paper tables differ between fork on (%s) and off (%s)", hexDigest(onDigest), hexDigest(offDigest))
	}
	ls.put("core.fork_on_ms", onS*1e3, "ms")
	ls.put("core.fork_off_ms", offS*1e3, "ms")
	ls.put("core.fork_hit_share", hit, "share")

	// The engine's scaling on fig2b: sequential, the in-process pool at
	// GOMAXPROCS, and one multiprocess shard (a re-exec of this binary).
	fig2b := func(jobs int, exec core.Exec) (float64, error) {
		sc := cliScale
		sc.Jobs, sc.Exec = jobs, exec
		var err error
		s := e.medianSeconds(func() {
			if _, e := core.Fig2bPushVsNoPush(sc); e != nil {
				err = e
			}
		})
		return s, err
	}
	n := runtime.GOMAXPROCS(0)
	t1, err := fig2b(1, core.Exec{})
	if err != nil {
		return err
	}
	tn, err := fig2b(n, core.Exec{})
	if err != nil {
		return err
	}
	tmp, err := fig2b(1, core.Exec{Kind: core.ExecMultiProcess, Shards: 1})
	if err != nil {
		return err
	}
	ls.put("core.fig2b_jobs1_ms", t1*1e3, "ms")
	ls.put("core.fig2b_jobsN_ms", tn*1e3, "ms")
	ls.put("core.parallel_efficiency", t1/(float64(n)*tn), "share")
	ls.put("core.multiprocess_shards1_ms", tmp*1e3, "ms")
	ls.put("core.multiprocess_overhead_ms", (tmp-t1)*1e3, "ms")
	return nil
}

// --- the traced, composed loads ---

// layerTrace composes page loads from the layers' public constructors
// with a span around every call, writes the trace, and derives the
// span- and count-based metrics.
func layerTrace(e effort, ls layerSet, seed int64, tracePath string) error {
	run, err := tracedLoads(seed, e.tracePasses)
	if err != nil {
		return err
	}
	if err := run.trace.writeChromeTrace(tracePath); err != nil {
		return fmt.Errorf("write %s: %w", tracePath, err)
	}
	st := run.trace.stats()
	var events, requests, conns, used, wasted float64
	for _, l := range run.loads {
		events += float64(l.events)
		requests += float64(l.requests)
		conns += float64(l.conns)
		if l.pushAll {
			used += float64(l.pushedUsed)
			wasted += float64(l.pushedWasted)
		}
	}
	n := float64(len(run.loads))
	ls.put("sim.events_per_load", events/n, "count")
	ls.put("sim.run_ns_per_event", st.sum(spanRun)*1e9/events, "ns")
	ls.put("sim.run_share", st.sum(spanRun)/st.sum(spanLoad), "share")
	ls.put("core.warm_load_us", run.referenceS*1e6/n, "us")
	ls.put("core.compose_self_share", sumOf(st.selfLoad)/st.sum(spanLoad), "share")
	ls.put("replay.farm_reset_us", median(st.byName[spanFarmReset])*1e6, "us")
	ls.put("replay.push_useful_share", used/(used+wasted), "share")
	ls.put("browser.loader_reset_us", median(st.byName[spanLoaderReset])*1e6, "us")
	ls.put("browser.start_us", median(st.byName[spanStart])*1e6, "us")
	ls.put("browser.requests_per_load", requests/n, "count")
	ls.put("browser.conns_per_load", conns/n, "count")
	ls.put("bench.trace_overhead_share", (run.composedS-run.referenceS)/run.referenceS, "share")
	return nil
}

func sumOf(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// layerMetrics runs every per-layer measurement. diag is the untraced
// run of the diagnosed workload whose bench.* figures ride along.
func layerMetrics(e effort, seed int64, tracePath string, diag *runResult) (layerSet, error) {
	ls := layerSet{}
	ls.put("sim.bare_ns_per_event_q64", simBareNsPerEvent(e, 64), "ns")
	ls.put("sim.bare_ns_per_event_q4096", simBareNsPerEvent(e, 4096), "ns")
	if err := layerNetem(e, ls); err != nil {
		return nil, err
	}
	if err := layerHpack(e, ls, corpus.Generate(corpus.TopProfile(), 0, corpusSeed)); err != nil {
		return nil, err
	}
	if err := layerH2(e, ls); err != nil {
		return nil, err
	}
	fresh := &freshIndex{}
	layerAnalysis(e, ls, fresh)
	layerScenario(e, ls, seed)
	if err := layerCodecs(e, ls); err != nil {
		return nil, err
	}
	if err := layerCore(e, ls, seed, fresh); err != nil {
		return nil, err
	}
	if err := layerTrace(e, ls, seed, tracePath); err != nil {
		return nil, err
	}
	for name, m := range diag.Diag {
		ls[name] = m
	}
	return ls, nil
}
