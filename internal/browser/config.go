// Package browser is the deterministic headless-browser model that
// replaces Chromium+browsertime in the paper's testbed (Sec. 4.1). It
// reproduces the parts of the page load and render process that Server
// Push interacts with:
//
//   - connection management with SAN/IP coalescing and per-origin dials;
//   - Chromium-like request priorities expressed as HTTP/2 dependencies
//     (subresources depend on the base document's stream, weighted by
//     class), which is what makes the server send CSS after HTML in the
//     no-push baseline of Fig. 5(b);
//   - a preload scanner that discovers references in received bytes ahead
//     of the (blockable) parser — the reason early-referenced resources
//     are requested after the first HTML chunk (s8, Sec. 4.3);
//   - render-blocking CSS, parser-blocking synchronous scripts, and
//     CSSOM-blocks-script-execution semantics — the critical rendering
//     path that interleaving push shortens;
//   - a block layout with one fixed 1280x720 viewport giving
//     above-the-fold areas, a paint timeline, and the visual progress
//     curve SpeedIndex integrates;
//   - Server Push handling: adopting promised streams, cancelling
//     duplicates, and SETTINGS_ENABLE_PUSH=0 for the no-push baseline.
//
// Absolute times differ from a real browser; the model's purpose is that
// the *relative* effects of push strategies (who wins, where crossovers
// sit) match, which the experiment suite checks against the paper.
package browser

import "time"

// Config tunes the browser model.
type Config struct {
	// EnablePush controls SETTINGS_ENABLE_PUSH at connection startup; the
	// paper's "no push" baseline sets it to false (Sec. 2.1, 4.1).
	EnablePush bool

	// Compute model: throughputs in bytes per millisecond.
	HTMLParseRate float64
	CSSParseRate  float64
	JSExecRate    float64

	// JitterFrac adds multiplicative uniform jitter (+-frac) to every
	// compute delay — the client-side processing variability that makes
	// request orders unstable across runs (Sec. 4.2).
	JitterFrac float64

	// MaxDuration bounds a page load; a load the horizon cuts reports
	// Outcome Partial or Failed with PLT clamped at the horizon.
	MaxDuration time.Duration

	// Recovery knobs (see recovery.go). ResourceTimeout is the per-fetch
	// budget; zero (the default) disables budget timers entirely, so the
	// fault-free configuration schedules no extra events. MaxRetries
	// bounds re-requests of a failed fetch; RetryBackoff is the linear
	// backoff unit (attempt k waits k*RetryBackoff).
	ResourceTimeout time.Duration
	MaxRetries      int
	RetryBackoff    time.Duration
}

// DefaultConfig returns the testbed defaults (Chromium-like semantics).
func DefaultConfig() Config {
	return Config{
		EnablePush:    true,
		HTMLParseRate: 10 * 1024,
		CSSParseRate:  5 * 1024,
		JSExecRate:    1 * 1024,
		JitterFrac:    0.03,
		MaxDuration:   120 * time.Second,
	}
}

// The viewport in CSS pixels: the paper's one browser setup (Sec. 4.1)
// and the above-the-fold clip of every layout.
const (
	viewportW = 1280
	viewportH = 720
)

// Class weights for the HTTP/2 priority mapping (wire values; effective
// weight is value+1). Modeled on Chromium's net priority buckets.
const (
	weightHTML     = 255
	weightCSS      = 219
	weightFont     = 219
	weightJSSync   = 183
	weightJSAsync  = 147
	weightImage    = 109
	weightOther    = 109
	charsPerLine   = 110
	lineHeightPx   = 22
	defaultImgEdge = 200
)
