// Package repro reproduces "Is the Web ready for HTTP/2 Server Push?"
// (Zimmermann, Wolters, Hohlfeld, Wehrle — CoNEXT 2018): a controlled
// record-and-replay testbed for evaluating HTTP/2 Server Push strategies,
// including the paper's interleaving-push server scheduler.
//
// The implementation is stdlib-only and fully self-contained:
//
//   - internal/h2 + internal/hpack: a from-scratch HTTP/2 stack (frames,
//     HPACK with Huffman coding, priority tree, flow control, pluggable
//     push schedulers) that runs both inside a discrete-event simulator
//     and over real net.Conn transports;
//   - internal/sim + internal/netem: the virtual clock and the emulated
//     access network (the paper's 16/1 Mbit/s, 50 ms DSL link by
//     default);
//   - internal/scenario: composable measurement scenarios — a named
//     netem.Profile plus a run-to-run variability model (network
//     jitter, loss, server think time, third-party content scaling,
//     client compute jitter) with deterministic per-run derivation;
//     ships the named library (dsl, internet, fiber, cable, lte, 3g,
//     wifi-lossy, satellite) the cross-scenario sweep iterates over;
//   - internal/replay: the Mahimahi-style record database, recording
//     proxy/crawler, and per-IP replay servers with SAN coalescing;
//   - internal/browser: the deterministic browser model (preload scanner,
//     critical rendering path, layout, paint timeline) with failure
//     recovery — per-resource timeout budgets, bounded retry, and
//     graceful degradation to a classified LoadOutcome;
//   - internal/fault: the deterministic fault-injection subsystem
//     (scripted link cuts and flaps, server stalls, mid-load GOAWAY,
//     push resets, mid-connection push disable);
//   - internal/strategy: all push strategies from the paper, critical-CSS
//     extraction and majority-vote push ordering;
//   - internal/core: the testbed orchestration, the parallel experiment
//     engine, and the tables: every figure, the cross-scenario strategy
//     sweep (ScenarioSweep) and the fault sweep (FaultSweep) run on one
//     site job — a site set, a strategy list and a render — and the
//     population-scale sweep (PopulationSweep: N clients on one shared
//     bottleneck, aggregated through mergeable quantile sketches) runs
//     its own (count, strategy, run) unit on the same engine.
//
// # The zero-copy byte path
//
// Simulator throughput is the budget every experiment spends, so the
// data plane avoids copies end to end: response bodies are queued into
// HTTP/2 streams by reference (h2's Stream.queueData retains the slice),
// DATA frames are emitted as an arena-backed header plus zero-copy
// payload subslices (h2.Core.AppendWrite), the emulated network
// transmits them as subslices of the writer's chunks (netem.End.WriteV
// transfers ownership), and the receiving frame parser consumes the
// delivered slices in place (h2.FrameReader.Feed retains, Next parses
// from the chunk list). A received DATA payload is never reassembled
// either: it reaches Core.OnData and ClientStream.OnData as an
// h2.DataView — its length plus parts, each a subslice of a delivered
// segment, padding stripped — once per frame, when the frame is
// complete. The parts are read-only (they alias the sender's buffers,
// back to the recorded body) and valid only during the callback; a
// consumer that keeps bytes copies them out (DataView.AppendTo), and the
// browser model does so only for a stylesheet or script the recording
// has no entry for. The ownership rule at every seam is the same:
// bytes handed across it must not be mutated afterwards, and bytes
// received from it must be copied if retained beyond the callback.
// Hot-path events ride sim.AtCall (pooled Event structs, static
// callbacks) and netem pools per-segment state, so steady-state
// transfer allocates nothing per segment.
//
// The transport's control path is pooled the same way. Anything armed
// and usually cancelled — a segment's retransmit timer, a fetch's
// budget timer, the load horizon — is a sim.AtTimer: an Event from the
// AtCall free list plus a sim.Timer value handle carrying the
// generation it was armed under, so Cancel through a stale handle is a
// no-op even though the struct has been reused (the sim package comment
// has the rule). A segment carries its own RTO handle and its index in
// the sender's pending list, so arming, firing and cancelling neither
// allocate nor scan. A netem connection is one recycled bundle (Conn,
// both Ends, both directions) drawn from a per-Network free list; the
// price is a lifetime rule — a *netem.Conn or *netem.End is valid until
// its Network's next Reset — which every holder (h2.SimEndpoint,
// replay.Farm, browser.Loader) already met by being reset in the same
// breath. Nothing on a simulation's run path calls Sim.At/After/Post
// any more; they remain for tests and cold paths.
//
// A warm load allocates nothing: RunOnceWith derives the run's
// scenario.Conditions into the RunContext (Scenario.DeriveInto, fault
// events included) and returns a *RunResult the context owns.
// Per-connection and per-script continuations follow the
// pooled-state design like everything else: what runs at connectEnd,
// when a parser-blocking or deferred script arrives, or when the CSSOM
// an execution waits for is ready is a static callback over fields of a
// pooled struct (browser.Loader's scriptWait and exec* fields, the
// gates of an h2.Core, the pending dials of a replay.Farm) or a func
// value bound once when the pooled struct is first created
// (conn.onDialFn, resource.onDataFn, Farm.onConnectFn), never a closure
// built per load; and hpack matches the static table by name, then by
// value, so encoding a field builds no key. To find an allocation, set
// runtime.MemProfileRate = 1 before anything runs, warm up, runtime.GC()
// twice, write a base profile, run N loads, runtime.GC() twice, write
// again, and read go tool pprof -sample_index=alloc_objects -base: at
// the default sampling rate (pushbench -memprofile) a path that
// allocates 8 KiB per load shows nothing. README.md, "A warm load
// allocates nothing", has the recipe line by line.
//
// The same never-mutate rule is what makes site generation cheap. A
// replay.Entry.Body is read-only and may alias memory shared with other
// entries: internal/corpus hands every image, font and HTML-padding
// payload out as a capacity-clipped slice of one process-wide periodic
// buffer (corpus.filler), replaced — never extended in place — when a
// larger payload is asked for, so a site's opaque megabyte costs no
// allocation and no fill. Whoever changes a body copies it first, as
// scenario.ApplySiteInto and strategy's HTML rewrite do
// (corpus.TestGenerateDigest pins every generated byte).
//
// # Prepared sites and run contexts
//
// On top of the zero-copy transfer path, per-run work is split into
// "prepare once, replay many". Everything that is a pure function of a
// recorded site — the parsed base document (htmlx), the parsed
// stylesheets (cssx), the browser's layout/milestone/URL-resolution
// bundle, and the strategy layer's critical-set analysis and rewritten
// site — is computed once per site (replay.Site.Prepared, a lazy,
// once-guarded derivation) and shared read-only across every simulation
// worker. The immutability rule mirrors the byte-path rule: anything
// reachable from a Prepared is frozen after construction; per-run
// mutable state (fetch progress, paint bitsets, scaled third-party
// bodies) lives in a core.RunContext, which owns a resettable
// simulator, a flat emulated network, a netem.Topology for population
// units and the client seats (a server farm, browser loader and overlay
// scratch each): a single-client load runs seat 0 on the flat network,
// a population unit seats 0..k-1 on the topology's clients.
//
// Run-context ownership. The engine (internal/core engine.go) owns that
// state for the whole process: one mutex-guarded free list of
// RunContexts, the one kind of state every load runs on. A worker
// checks one state out when it draws its first unit of a fan-out, threads it
// through every run it executes (core.Testbed.RunOnceWith) and the
// engine takes it back when that fan-out has no more units to draw, so
// the next fan-out — the next Evaluate or Trace of the same site, the
// next scenario table, fault family, population preset, the next driver
// call — starts on state that is already grown instead of rebuilding
// its world. The rules:
//
//   - Whoever checked a state out owns it until release, and uses it
//     from one goroutine at a time. The free list is the only way a
//     state passes from one goroutine to another.
//   - A context lent to a fan-out (Testbed.useContext: the drivers lend
//     a site-level worker's context to the testbeds of that site) is run
//     by exactly one worker of that fan-out — the goroutine that opened
//     it, unless a helper drew every unit first — and is never released
//     by it; it stays the lender's. A caller's own NewRunContext is
//     likewise never put on the list.
//   - As many contexts stay idle as the widest budget that ever
//     checked one out has slots, whatever GOMAXPROCS is; what was
//     held beyond that is dropped to the collector on release.
//   - An idle RunContext retains what its last runs left behind: their
//     sites and plans (through the farms and loaders), the grown
//     simulator, flat network, topology and h2 pools, and every client
//     seat it ever grew. Idle state is retained until the process
//     exits.
//   - State caches scratch, never results (population result cells are
//     per unit and merged in unit order), so which worker draws which
//     state cannot change any output — pinned by running every driver
//     family (each figure on the site job and the three sweeps) back to
//     back in two orders against a drained engine and the goldens
//     (TestPooledStateAcrossDrivers, under -race in CI).
//
// Shared plan lowering. A replay.Plan lowered onto a site — ordered
// authoritative push entries, critical flags, the pre-encoded
// PUSH_PROMISE/response block sequence — is a pure function of (site,
// plan). replay.PushList and Plan.WithInterleave attach a handle to the
// plan they build; the first farm to replay the plan lowers it under the
// handle's lock and every other farm, on any worker, points at the same
// value (64 client seats per population unit used to compute 64
// byte-identical copies). The contract is read-only on both sides: a
// Plan is immutable once built (WithInterleave copies, it does not
// alias), and nothing writes a lowering after lowerPlan returns — a farm
// keeps only a pointer. Identity is by handle pointer, and the lowering
// holds its handle, so an address can never be recycled while a farm
// could still compare against it; the lowering's lifetime is the plan's,
// so nothing accumulates across strategy applications. A plan assembled
// field by field has no handle and is lowered privately on every Reset.
//
// Work-conserving engine. Every top-level driver call makes one
// budget of Jobs slots that all of its nested fan-outs draw on, and a goroutine executes units only while it holds
// a slot: Jobs is the total number of loads in flight, at any nesting
// depth. The goroutine that opens a fan-out holds a slot already and
// always works on it itself, in index order when nobody joins, so
// nesting cannot deadlock and Jobs 1 starts no goroutine; helpers park
// on the budget (blocked, not spinning), join while a slot is free and a
// unit undrawn, and leave at the last draw, so a slot freed by a
// finished sibling site is used one load later by whichever fan-out
// still has units; an opener that must wait for its helpers gives its
// slot up for the wait. The lent context (Testbed.useContext) is run by
// exactly one worker of the fan-out, the opener unless helpers drew
// every unit first, and is never released.
//
// # The intern table: dense IDs and pre-encoded headers
//
// Preparation also assigns every name the site can mention a dense
// integer ID (replay.Prepared.Interns): resource URLs, connection
// groups (coalescing classes of authorities) and font families. The
// contract is that IDs are prepare-time-stable, strictly per-site and
// never reused across prepared sites — a rewritten site is a new Site
// with its own Prepared and its own ID space, while a scenario variant
// shares its base's Prepared and therefore its base's IDs. The per-run
// hot path then touches only integers: the browser loader's resource,
// connection and font state are slice tables indexed by ID (string maps
// survive only as the overflow path for names outside the prepared
// space — a PUSH_PROMISE for a recorded entry resolves through the
// same two-level (authority, path) lookup the farm serves from, without
// building a URL string), the farm's push sets are ID-indexed bitsets
// resolved once per (site, plan) and shared by every farm replaying
// the pair, and h2 stream and priority tables are slices keyed by a
// per-connection dense stream index. The intern table also carries the
// prepare-time HPACK pre-encoding: request/push-promise and response
// header blocks are encoded once per site and replayed as a memcpy when
// the connection's encoder state provably matches (hpack.PreEncoded);
// otherwise the live encoder runs — the wire bytes are identical either
// way, byte-equality pinned by tests. h2 client and server connection
// objects (cores, codec state, stream structs, priority nodes) are
// pooled on the run context's loader and farm and fully Reset between
// runs.
//
// # Fault injection and recovery
//
// internal/fault makes failure a scripted, reproducible experiment
// input rather than an accident. A fault.Spec lives as plain data on a
// scenario (scenario.Scenario.Faults) and describes which failures
// strike a load and when: the access link being cut or flapping, the
// replay server stalling, a mid-load GOAWAY, RST_STREAM on in-flight
// pushed streams, or the client disabling push mid-connection.
// Spec.Derive lowers it per run into a time-sorted fault.Plan using its
// own seed-derived RNG stream (only when jitter is requested), so
// adding faults to a scenario never perturbs link, think-time or
// third-party draws. A pooled fault.Injector schedules the plan on the
// sim clock and hands each event to the testbed, which applies it
// through the layer that owns the failure: netem cuts or resumes the
// link, the farm stalls dispatch or injects GOAWAY/push resets, the
// loader disables push. An empty plan schedules nothing — zero events,
// zero sequence numbers — so the fault-free path is byte-identical to a
// build without the subsystem, and the goldens pin that.
//
// The browser survives what the injector throws at it. Every load now
// terminates with a browser.LoadOutcome — Complete (onload fired, no
// terminal failures), Partial (the page settled or hit the horizon with
// some resources failed), or Failed (the base document never arrived) —
// and per-resource failure causes (timeout, reset, goaway, conn-error,
// horizon) on the result's timings. Recovery is deterministic and
// bounded: Config.ResourceTimeout arms a per-fetch budget (zero, the
// default, arms nothing), failed fetches retry up to Config.MaxRetries
// times with linear Config.RetryBackoff — re-dialling if the connection
// died — and a pushed stream that dies before the parser wants the
// resource just cancels the push (its delivered bytes counted as wasted)
// so discovery re-requests normally. Terminal failures degrade
// gracefully instead of hanging the load: parser blocks lift, CSS
// waiters fire, deferred chains advance, and milestone metrics stay
// defined on partial pages. When a load settles, the loader cancels its
// remaining timers and closes its connections, so a permanently cut
// link cannot keep retransmission timers spinning past the horizon.
//
// pushbench -experiment faults runs the push-strategy contrast under
// each scripted fault family and reports outcome counts, median PLT and
// failure/waste accounting per cell.
//
// # Population sweeps: shared bottlenecks and streaming aggregation
//
// The paper's testbed is one client on one access link; the population
// engine asks what happens when N clients share an uplink. A
// netem.SharedProfile describes the two-hop topology — per-client
// access links (full Profiles) feeding one FIFO queue per direction at
// the shared rates — and netem.Topology instantiates it on a single
// simulator: each client keeps its own Network (pipes, congestion
// state, segment pool) and every flow's segments additionally traverse
// the shared pipes, where the clients' traffic interleaves in FIFO
// order. A flat Network is the nil-second-hop special case, so the
// single-client path is bit-identical to before the topology existed
// (the goldens pin that). Client Networks are owned by their Topology:
// Reset re-attaches the shared pipes for the active clients and a flat
// Reset detaches them, so pooled Networks recycle cleanly in both
// directions. Scenario presets (household, cell-sector, office-nat)
// live in internal/scenario as plain data.
//
// Aggregation is O(1) in the number of loads: per-load PLT and
// SpeedIndex stream into metrics.Sketch, a DDSketch-style mergeable
// quantile sketch with geometrically spaced integer buckets. Every
// reported quantile is within SketchRelativeError (1%) of the exact
// value — a relative-error bound on the value, not a rank bound — with
// exact min/max at p0/p100, and MergeFrom is commutative and
// associative integer addition, so merging the per-unit cells — each
// population unit fills a cell of its own, whichever run context it
// ran on — yields bit-identical tables at any -jobs. The same machinery
// backs metrics.Sample.Compact, which freezes a sample's exact summary
// statistics (N, median, mean, std, stderr, CI), folds the raw values
// into a sketch for later quantile queries, and releases them — the
// experiment drivers compact after each evaluation, so sweep memory no
// longer scales with runs. pushbench -experiment population renders
// per-preset tables of strategy x client-count median/p95 PLT and
// SpeedIndex plus a fairness row (PLT p95/p50).
//
// # Machine-checked contracts (repolint)
//
// The engine invariants described above are not just prose: cmd/repolint
// (driving internal/analysis) type-checks the module and enforces them
// statically, and CI gates every change on a clean run. Each contract
// maps to one analyzer and, where the contract needs a human judgment
// call, one escape-hatch directive:
//
//	contract                                analyzer       directive
//	-----------------------------------------------------------------------------
//	runs are a pure function of the seed:   determinism    //repolint:ordered <reason>
//	no wall clock, no global math/rand,                      (order-safe map range)
//	no map-order-dependent output in
//	sim, core, netem, scenario, shard,
//	metrics
//
//	pooled reuse leaks nothing: every       resetcomplete  //repolint:pooled (on the type)
//	//repolint:pooled type's Reset covers                  //repolint:keep <reason> (field
//	every field, directly or through the                     deliberately survives Reset)
//	methods it calls; a Reset method on                    //repolint:notpooled <reason>
//	an unannotated type must declare                         (protocol Reset, not pooling)
//	itself either way
//
//	the warm loop allocates nothing:        hotpath        //repolint:hotpath (opt-in on
//	no fmt, string concatenation,                            the function; panic arguments
//	closures, method values or                               and returns stay exempt as the
//	non-pointer-shaped interface boxing                      cold error path)
//	in functions marked hotpath
//
//	transport []byte parameters are         retain         //repolint:owns (the function
//	borrowed: storing one (or a subslice,                    takes ownership; the caller
//	or an append chain carrying one) into                    must not touch the buffer
//	a field or package variable requires                     again)
//	a declared ownership transfer
//
//	directives themselves are well-formed:  directives     (none: a typo'd or misattached
//	known verb, reason present where                         escape hatch is always an
//	required, attached to the right node                     error)
//
//	internal/ exports only what the         unusedexport   (none: constants and methods
//	module uses: every exported func,                        that implement an interface
//	type, var or method has a reader                         are exempt; anything else is
//	outside its package (any non-test                        deleted or unexported)
//	file, or another package's test)
//
// Directives use the toolchain's comment-directive shape (//repolint:verb,
// no space), so gofmt leaves them alone. Reasons run to end of line.
// Run the suite with:
//
//	go run ./cmd/repolint ./...        # everything (what CI runs)
//	go run ./cmd/repolint internal/h2  # one package
//	go run ./cmd/repolint -list        # the analyzer catalog
//
// Each analyzer carries a seeded-violation fixture under
// internal/analysis/testdata pinning its diagnostics, so the checkers
// are themselves regression-tested. One deliberate asymmetry:
// core.RunContext has no Reset method — per-run reset happens inside
// RunOnceWith, member by member (each pooled member is itself a
// //repolint:pooled type) — so resetcomplete checks its members, not
// the aggregate.
//
// Experiment tables are pinned byte-for-byte across all of this
// machinery by golden-fixture tests (internal/core/testdata) at Jobs=1
// and Jobs=N, under -race, and allocation budgets are enforced by
// regression tests (TestPageLoadAllocBudget,
// TestRunContextReuseAllocBudget, TestWarmLoadAllocBudgetByStrategy,
// TestFaultRunAllocBudget, TestPopulationUnitAllocBudget,
// TestSweepReentryAllocBudget, TestFrameReaderAllocBudget,
// TestEncodeBlockAllocBudget, TestGenerateAllocBudget); the repository
// benchmark (go run ./bench, contract in BENCHMARK.json) is what a
// performance claim is measured with. The peer-facing decoders
// (h2.FrameReader, hpack.Decoder) and the bench-only shard.StreamReader
// carry fuzz targets seeded from real codec output; CI runs short
// sessions of each.
//
// See README.md for building, running the experiment drivers
// (cmd/pushbench) and benchmarking.
package repro
