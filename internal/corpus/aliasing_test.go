package corpus_test

import (
	"sync"
	"testing"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/page"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/strategy"
)

// TestSharedPayloadsStayReadOnly drives everything that handles a
// generated body — third-party scaling, the critical-CSS HTML rewrite,
// full page loads through the zero-copy data plane — from two
// goroutines at once, then checks that no byte of the buffer the
// payloads alias was written. Under -race a write would also be
// reported against the other goroutine's reads.
func TestSharedPayloadsStayReadOnly(t *testing.T) {
	internet := scenario.Internet() // third-party bodies rescaled per run
	tb := core.NewTestbed()
	tb.Scenario = internet
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var scratch scenario.SiteScratch
			for i := 0; i < 3; i++ {
				// Indices 0 and 2 are shared by both goroutines; the
				// others are generated while the other one runs.
				site := corpus.Generate(corpus.RandomProfile(), i*(g+1), 97)
				checkClipped(t, site)
				for draw := int64(0); draw < 4; draw++ {
					internet.Derive(draw).ApplySiteInto(site, &scratch)
				}
				rewritten, plan := strategy.PushCriticalOptimized{}.Apply(site, nil)
				for run := 0; run < 2; run++ {
					if res := tb.RunOnce(rewritten, plan, run); res.Outcome != browser.OutcomeComplete {
						t.Errorf("site %s run %d: outcome %v", site.Name, run, res.Outcome)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if at, size := corpus.FillerBackingCorruptAt(); at >= 0 {
		t.Fatalf("shared payload buffer (%d bytes) was written at offset %d", size, at)
	}
}

// checkClipped holds every opaque payload to cap == len and shows what
// that buys: an append by a holder lands in memory of its own.
func checkClipped(t *testing.T, site *replay.Site) {
	for _, e := range site.DB.Entries() {
		if k := e.Kind(); k != page.KindImage && k != page.KindFont {
			continue
		}
		if cap(e.Body) != len(e.Body) {
			t.Errorf("%s: cap %d != len %d", e.URL, cap(e.Body), len(e.Body))
		}
		_ = append(e.Body, "overrun"...)
	}
}
