package browser

import (
	"time"

	"repro/internal/h2"
	"repro/internal/page"
	"repro/internal/sim"
)

// This file is the loader's failure and recovery machinery: per-resource
// timeout budgets, bounded deterministic retry with connection
// re-establishment, conn-death handling (GOAWAY, protocol errors) and
// the terminal LoadOutcome classification. None of it schedules events
// unless a fault actually strikes or Config enables timeouts, so the
// fault-free path stays byte-identical to a loader without recovery.

// LoadOutcome classifies how a page load terminated. Every load
// terminates with an outcome: onload fired (Complete), onload fired or
// the horizon was reached with some resources failed (Partial), or the
// base document never arrived (Failed). The zero value is Failed so an
// early-abandoned Result is never mistaken for success.
type LoadOutcome uint8

const (
	OutcomeFailed LoadOutcome = iota
	OutcomePartial
	OutcomeComplete
)

func (o LoadOutcome) String() string {
	switch o {
	case OutcomeComplete:
		return "complete"
	case OutcomePartial:
		return "partial"
	}
	return "failed"
}

// failCause records why a resource fetch terminally failed.
type failCause uint8

const (
	FailNone      failCause = iota
	FailTimeout             // per-resource budget expired
	FailReset               // peer reset the stream (RST_STREAM)
	FailGoAway              // connection went away with the stream unfinished
	FailConnError           // connection died on a protocol error
	FailHorizon             // still in flight when the load horizon fired
)

func (c failCause) String() string {
	switch c {
	case FailTimeout:
		return "timeout"
	case FailReset:
		return "reset"
	case FailGoAway:
		return "goaway"
	case FailConnError:
		return "conn-error"
	case FailHorizon:
		return "horizon"
	}
	return "none"
}

// armTimeout starts r's per-resource budget timer. A resource that
// neither completes nor fails within the budget is treated as failed
// (and retried if attempts remain). No timer is armed when the budget
// is disabled, which is the default — so fetches on the fault-free
// configuration schedule zero extra events.
//
//repolint:hotpath
func (ld *Loader) armTimeout(r *resource) {
	d := ld.cfg.ResourceTimeout
	if d <= 0 {
		return
	}
	r.tmo = ld.s.AtTimer(ld.s.Now()+d, resourceTimeout, r)
}

// resourceTimeout is the pooled-timer callback for an expired budget.
//
//repolint:hotpath
func resourceTimeout(a any) {
	r := a.(*resource)
	r.tmo = sim.Timer{}
	r.ld.onResourceFail(r, FailTimeout)
}

// disarmTimeout cancels r's budget timer, if one is armed.
//
//repolint:hotpath
func (ld *Loader) disarmTimeout(r *resource) {
	r.tmo.Cancel()
	r.tmo = sim.Timer{}
}

// onStreamFailed is the persistent per-resource OnFailed continuation:
// the peer reset the stream before it completed.
func (ld *Loader) onStreamFailed(r *resource, _ h2.ErrCode) {
	ld.onResourceFail(r, FailReset)
}

// onResourceFail handles one failed fetch attempt: detach the dead
// stream, account wasted push bytes, then either schedule a retry
// (bounded, deterministic backoff, fresh connection if the old one
// died) or mark the resource terminally failed.
func (ld *Loader) onResourceFail(r *resource, cause failCause) {
	if ld.done || r.loaded || r.failed {
		return
	}
	ld.disarmTimeout(r)
	if cs := r.cs; cs != nil {
		// Detach so late bytes from the abandoned stream cannot mix into
		// a retry, and cancel it if still open (frees the server's state;
		// a no-op on a dead connection — the transport drops the frame).
		cs.OnData, cs.OnComplete, cs.OnFailed = nil, nil, nil
		if !cs.Completed() && !cs.Failed() {
			cs.Cancel()
		}
		r.cs = nil
	}
	if r.pushed && !r.cancelled {
		// A pushed stream died: whatever arrived is wasted push bytes
		// (ISSUE: dead-conn push bytes count), and the push no longer
		// satisfies the resource, so a re-request is allowed again.
		r.cancelled = true
		ld.res.BytesPushedWasted += int64(r.bytes)
	}
	r.conn = nil
	if !r.discovered {
		// Purely speculative push died before the parser asked for the
		// resource. Cancelling the push is the whole recovery: if the
		// page ever references it, discovery issues a normal request
		// (fetch treats a cancelled push as never-pushed). Terminal
		// failure here would wrongly poison that later request.
		r.bytes = 0
		if r.body != nil {
			r.body = r.body[:0]
		}
		return
	}
	if r.retries < ld.cfg.MaxRetries {
		r.retries++
		r.requested = false
		r.bytes = 0
		if r.body != nil {
			r.body = r.body[:0]
		}
		// Deterministic linear backoff: attempt k waits k*RetryBackoff.
		// No RNG draw — retry timing must not perturb any derivation
		// stream.
		delay := time.Duration(r.retries) * ld.cfg.RetryBackoff
		ld.s.AtCall(ld.s.Now()+delay, resourceRetry, r)
		return
	}
	ld.resourceFailed(r, cause)
}

// resourceRetry is the pooled-event callback for a scheduled retry.
func resourceRetry(a any) {
	r := a.(*resource)
	ld := r.ld
	if ld.done || r.loaded || r.failed || r.requested {
		return
	}
	ld.fetch(r, false)
}

// resourceFailed marks r terminally failed and runs the same
// continuations a successful load would, so the page degrades
// gracefully instead of hanging: parser blocks lift, CSS waiters fire
// (a failed sheet contributes no CSSOM), deferred chains advance, and
// checkLoad counts the resource as settled.
func (ld *Loader) resourceFailed(r *resource, cause failCause) {
	if r.failed || r.loaded {
		return
	}
	r.failed = true
	r.failCause = cause
	r.end = ld.s.Now()
	r.ready = true
	r.executed = true
	ld.failedCount++
	// Continuations check r.failed and skip content execution.
	ld.scriptSettled(r)
	ld.releaseImporters(r)
	if r.kind == page.KindCSS {
		ld.notifyCSSWaiters()
	}
	ld.tryPaint()
	ld.checkLoad()
}

// connDead marks a connection terminally dead: its transport is closed,
// every unfinished resource riding it fails (and retries on a fresh
// connection), and the connection tables stop coalescing onto it.
func (ld *Loader) connDead(c *conn, cause failCause) {
	if c == nil || c.dead {
		return
	}
	c.dead = true
	if c.end != nil {
		c.end.Close()
	}
	// Iterate the resource list as of now; retries triggered below may
	// discover new resources, which cannot be riding this connection.
	act := ld.active
	for _, r := range act {
		if r.conn == c && !r.loaded && !r.failed {
			ld.onResourceFail(r, cause)
		}
	}
}

// connByClient resolves the loader connection wrapping an h2 client.
// Bundles are never recycled mid-run, so the mapping is unique.
func (ld *Loader) connByClient(cl *h2.Client) *conn {
	for _, c := range ld.connActive {
		if c.client == cl {
			return c
		}
	}
	return nil
}

// onGoAway is the per-run GOAWAY continuation installed on every dialed
// client: the loader treats GOAWAY as terminal for the whole connection
// — in-flight streams (pushed ones included) are failed and re-requested
// over a fresh connection, matching how browsers abandon a going-away
// connection for new work.
func (ld *Loader) onGoAway(cl *h2.Client, _ uint32) {
	ld.connDead(ld.connByClient(cl), FailGoAway)
}

// onConnError is the per-run protocol-error continuation: the
// connection is unusable, every unfinished stream fails.
func (ld *Loader) onConnError(cl *h2.Client, _ h2.ConnError) {
	ld.connDead(ld.connByClient(cl), FailConnError)
}

// DisablePush turns off server push mid-load: every established
// connection sends SETTINGS_ENABLE_PUSH=0 and future dials start with
// push disabled. Pushes already promised are refused by the h2 layer
// (RST_STREAM(REFUSED_STREAM)) once the setting is active.
func (ld *Loader) DisablePush() {
	ld.settings.EnablePush = false
	for _, c := range ld.connActive {
		if c.client != nil && !c.dead {
			c.client.Core.SetEnablePush(false)
		}
	}
}

// terminate seals the load at its terminal outcome: no further retries
// or timeouts run, remaining timers are cancelled and every connection
// is closed, so the simulation always drains — even under a permanent
// link cut, where open connections would otherwise rearm retransmit
// timers forever. All Result fields are computed before terminate runs.
func (ld *Loader) terminate() {
	ld.done = true
	ld.res.FailedResources = ld.failedCount
	for _, r := range ld.active {
		ld.disarmTimeout(r)
	}
	for _, c := range ld.connActive {
		if c.end != nil {
			c.end.Close()
		}
	}
}

// markHorizonFailures records every still-unfinished resource as failed
// with FailHorizon so partial-page metrics account for them. It runs
// only on the horizon path, right before finishVisuals.
func (ld *Loader) markHorizonFailures() {
	for _, r := range ld.active {
		if (r.requested || (r.pushed && !r.cancelled)) && !r.loaded && !r.failed {
			r.failed = true
			r.failCause = FailHorizon
			r.end = ld.s.Now()
			ld.failedCount++
			if r.pushed && !r.cancelled {
				r.cancelled = true
				ld.res.BytesPushedWasted += int64(r.bytes)
			}
		}
	}
}
