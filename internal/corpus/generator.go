package corpus

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/replay"
)

// Profile parameterizes the random site generator. The two presets are
// calibrated to the paper's two evaluation sets (Sec. 4.2): a sample of
// the Alexa top-500 ("top-100" set) and of the full top-1M
// ("random-100"), including the observed pushable-object distribution
// (52% / 24% of sites have <20% pushable objects).
type Profile struct {
	Name string
	// LowPushableProb is the probability a site ends up with <20% of its
	// objects on the base server.
	LowPushableProb float64
	// Object count range (excluding the base document).
	MinObjects, MaxObjects int
	// Third-party host count range.
	MinHosts, MaxHosts int
	// HTML size range in KB.
	MinHTMLKB, MaxHTMLKB int
}

// TopProfile models sites sampled from the Alexa top 500: many objects,
// heavy third-party use.
func TopProfile() Profile {
	return Profile{
		Name:            "top-100",
		LowPushableProb: 0.52,
		MinObjects:      40, MaxObjects: 140,
		MinHosts: 6, MaxHosts: 28,
		MinHTMLKB: 30, MaxHTMLKB: 260,
	}
}

// RandomProfile models sites sampled from the full Alexa 1M: smaller,
// more self-hosted.
func RandomProfile() Profile {
	return Profile{
		Name:            "random-100",
		LowPushableProb: 0.24,
		MinObjects:      12, MaxObjects: 70,
		MinHosts: 1, MaxHosts: 10,
		MinHTMLKB: 10, MaxHTMLKB: 120,
	}
}

func randRange(rng *rand.Rand, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// sizeKB draws a skewed (roughly log-uniform) size in bytes.
func sizeKB(rng *rand.Rand, loKB, hiKB int) int {
	lo, hi := float64(loKB), float64(hiKB)
	f := lo * math.Pow(hi/lo, rng.Float64())
	return int(f * 1024)
}

// Generation is memoized: the generator is a pure function of
// (profile, index, seed), and generated sites are immutable once built
// (the same contract that lets prepared sites be shared across engine
// workers), so repeated experiment drivers asking for the same corpus —
// pushbench -exp all regenerates the identical random set for nearly
// every figure — get the cached site instead of re-synthesizing and
// re-parsing it. The cache is bounded; overflow drops it wholesale.
var (
	genMu    sync.Mutex
	genCache map[genKey]*replay.Site
)

type genKey struct {
	prof  Profile
	index int
	seed  int64
}

const genCacheMax = 4096

// Generate synthesizes one random site. The same (profile, index, seed)
// always yields the same site.
func Generate(prof Profile, index int, seed int64) *replay.Site {
	key := genKey{prof: prof, index: index, seed: seed}
	genMu.Lock()
	if s, ok := genCache[key]; ok {
		genMu.Unlock()
		return s
	}
	genMu.Unlock()
	s := generate(prof, index, seed)
	genMu.Lock()
	if len(genCache) >= genCacheMax {
		genCache = nil
	}
	if genCache == nil {
		genCache = make(map[genKey]*replay.Site)
	}
	genCache[key] = s
	genMu.Unlock()
	return s
}

func generate(prof Profile, index int, seed int64) *replay.Site {
	rng := rand.New(rand.NewSource(seed ^ int64(index)*0x9e3779b97f4a7c))
	host := fmt.Sprintf("site%03d.%s.test", index, prof.Name)
	b := NewPage(host)
	b.Title(fmt.Sprintf("%s #%d", prof.Name, index))

	pushableTarget := 0.0
	if rng.Float64() < prof.LowPushableProb {
		pushableTarget = 0.03 + rng.Float64()*0.15
	} else {
		pushableTarget = 0.25 + rng.Float64()*0.6
	}
	nObjects := randRange(rng, prof.MinObjects, prof.MaxObjects)
	nHosts := randRange(rng, prof.MinHosts, prof.MaxHosts)
	thirdHosts := make([]string, nHosts)
	for i := range thirdHosts {
		thirdHosts[i] = fmt.Sprintf("cdn%d.site%03d-ext.test", i, index)
	}
	pick := func() string {
		if rng.Float64() < pushableTarget || len(thirdHosts) == 0 {
			return host
		}
		return thirdHosts[rng.Intn(len(thirdHosts))]
	}

	// Object mix: a few CSS, some JS, mostly images, occasional fonts.
	nCSS := randRange(rng, 1, 5)
	nJS := randRange(rng, 2, minInt(12, maxInt(3, nObjects/6)))
	nFonts := 0
	if rng.Float64() < 0.4 {
		nFonts = randRange(rng, 1, 2)
	}
	nImages := nObjects - nCSS - nJS - nFonts
	if nImages < 1 {
		nImages = 1
	}

	// Classes for the visible structure; CSS rules reference them.
	classes := []string{"hero", "masthead"}
	for i := 0; i < 8; i++ {
		classes = append(classes, fmt.Sprintf("sec-%d", i))
	}

	// Fonts first: their URLs are embedded in CSS.
	var fontCSS string
	for f := 0; f < nFonts; f++ {
		fam := fmt.Sprintf("Web%d", f)
		furl := b.Font(fmt.Sprintf("/fonts/f%d.woff2", f), sizeKB(rng, 20, 90))
		fontCSS += FontFaceCSS(fam, furl)
	}

	// Head: CSS links (bulk of rules in the first sheet) and 0-2 sync
	// scripts.
	for c := 0; c < nCSS; c++ {
		css := SimpleCSS(classes, sizeKB(rng, 3, 50)/90)
		if c == 0 {
			css = fontCSS + css
		}
		b.CSSOn(pick(), fmt.Sprintf("/css/style%d.css", c), css, false)
	}
	headScripts := randRange(rng, 0, 2)
	for j := 0; j < headScripts && j < nJS; j++ {
		b.ScriptOn(pick(), fmt.Sprintf("/js/head%d.js", j),
			sizeKB(rng, 8, 120), float64(rng.Intn(60)), true, false)
	}

	// Body: hero with image, then sections of text and images, scripts
	// sprinkled through and at the end.
	b.Div("hero", randRange(rng, 120, 400))
	heroHost := pick()
	b.ImageOn(heroHost, "/img/hero.jpg", 1280, randRange(rng, 250, 450), sizeKB(rng, 30, 150))
	imagesLeft := nImages - 1
	jsLeft := nJS - headScripts
	section := 0
	for imagesLeft > 0 || jsLeft > 0 {
		cls := classes[2+section%8]
		textCls := []string{cls}
		if nFonts > 0 && section%3 == 0 {
			textCls = append(textCls, fmt.Sprintf("wf-Web%d", section%nFonts))
		}
		b.Text(randRange(rng, 150, 900), textCls...)
		imgsHere := minInt(imagesLeft, randRange(rng, 0, 4))
		for k := 0; k < imgsHere; k++ {
			edge := randRange(rng, 150, 600)
			b.ImageOn(pick(), fmt.Sprintf("/img/s%d-%d.jpg", section, k),
				edge, randRange(rng, 100, 400), sizeKB(rng, 4, 120))
			imagesLeft--
		}
		if jsLeft > 0 && rng.Float64() < 0.35 {
			async := rng.Float64() < 0.4
			b.ScriptOn(pick(), fmt.Sprintf("/js/body%d.js", jsLeft),
				sizeKB(rng, 6, 100), float64(rng.Intn(40)), false, async)
			jsLeft--
		}
		if rng.Float64() < 0.2 {
			b.InlineScript(randRange(rng, 200, 4000), false)
		}
		section++
		if section > 500 {
			break
		}
	}
	for jsLeft > 0 {
		b.ScriptOn(pick(), fmt.Sprintf("/js/tail%d.js", jsLeft),
			sizeKB(rng, 6, 80), float64(rng.Intn(30)), false, false)
		jsLeft--
	}

	// Pad HTML to the drawn size.
	b.PadHTMLTo(sizeKB(rng, prof.MinHTMLKB, prof.MaxHTMLKB))
	return b.Build(fmt.Sprintf("%s-%03d", prof.Name, index))
}

// GenerateSet produces n sites from a profile.
func GenerateSet(prof Profile, n int, seed int64) []*replay.Site {
	out := make([]*replay.Site, n)
	for i := range out {
		out[i] = Generate(prof, i, seed)
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
