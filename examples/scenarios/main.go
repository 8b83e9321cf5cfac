// Scenarios: ask the question the paper could not — "where does push
// actually help?" — by loading one page under every named network
// scenario (paper DSL, fiber, cable, LTE, 3G, lossy Wi-Fi, satellite)
// and comparing a push strategy against the no-push baseline on each.
package main

import (
	"flag"
	"fmt"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/strategy"
)

func main() {
	runs := flag.Int("runs", 7, "repetitions per scenario")
	flag.Parse()

	// The quickstart page: render-blocking CSS, a hero image, a script.
	b := corpus.NewPage("scenarios.test")
	b.CSS("/css/main.css", corpus.SimpleCSS([]string{"hero", "intro"}, 80))
	b.Div("hero", 300)
	b.Image("/img/hero.png", 1280, 360, 60*1024)
	b.Text(700, "intro")
	b.Script("/js/app.js", 30*1024, 20, false, false)
	b.PadHTML(40 * 1024)
	site := b.Build("scenarios")

	fmt.Printf("%-12s %-62s %10s %10s\n", "scenario", "link", "ΔSI", "ΔPLT")
	for _, sc := range scenario.All() {
		tb := core.NewTestbed()
		tb.Scenario, tb.Runs = sc, *runs
		base := tb.EvaluateStrategy(site, strategy.NoPush{}, nil)
		ev := tb.EvaluateStrategy(site, strategy.PushCriticalOptimized{}, nil)
		fmt.Printf("%-12s %-62s %9.1f%% %9.1f%%\n",
			sc.Name, sc.Info,
			metrics.RelChange(ev.SI.Mean(), base.SI.Mean())*100,
			metrics.RelChange(ev.PLT.Mean(), base.PLT.Mean())*100)
	}
	fmt.Println("\nΔ<0 means push critical optimized beat no push under that scenario.")
}
