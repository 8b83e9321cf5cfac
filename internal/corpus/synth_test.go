package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/replay"
)

// --- byte-identity of everything the package generates ---

// Digests recorded from the generators as they stood before content
// synthesis was rewritten (fmt into strings.Builder, a fresh payload per
// object, the document rendered twice). Every golden table, CLI output
// and benchmark output digest depends on these bytes; a change here is a
// change to the corpus, never a refactor.
const (
	digestRandom    = "1f53efe1903c649e9f41cec3fdf24935f81ffe753ce11a991064fe1a857a4d62"
	digestTop       = "47010c0677eefc873095d8ab3e311d176d3d43f8057c71eede4d08541faec9f2"
	digestSynthetic = "616d27e9839596d09a9267343f83c44ca286f55006565fd11ba76f330bb4066b"
	digestPopular   = "1a39d76beb68d9ed57e1db75399dfd77ffa9eddc84b6d05d46a43bc164f1dba6"
)

// siteDigest hashes every entry of every site: URL, status, content
// type, Meta and body, in database order, under the site's name and base.
func siteDigest(sites []*replay.Site) string {
	h := sha256.New()
	for _, s := range sites {
		fmt.Fprintf(h, "site %q %s %d\n", s.Name, s.Base, s.DB.Len())
		for _, e := range s.DB.Entries() {
			fmt.Fprintf(h, "%s %d %q %+v %d\n", e.URL, e.Status, e.ContentType, e.Meta, len(e.Body))
			h.Write(e.Body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGenerateDigest(t *testing.T) {
	profileSet := func(prof Profile) []*replay.Site {
		var out []*replay.Site
		for _, seed := range []int64{1, 7} {
			for i := 0; i < 16; i++ {
				// generate, not Generate: the memo must not stand in for
				// the synthesis under test.
				out = append(out, generate(prof, i, seed))
			}
		}
		return out
	}
	popular := make([]*replay.Site, 0, 20)
	for _, id := range PopularSiteIDs() {
		popular = append(popular, PopularSite(id))
	}
	for _, c := range []struct {
		name  string
		sites []*replay.Site
		want  string
	}{
		{"random-100", profileSet(RandomProfile()), digestRandom},
		{"top-100", profileSet(TopProfile()), digestTop},
		{"synthetic", SyntheticSites(), digestSynthetic},
		{"popular", popular, digestPopular},
	} {
		if got := siteDigest(c.sites); got != c.want {
			t.Errorf("%s: digest %s, want %s — generated bytes changed", c.name, got, c.want)
		}
	}
}

// --- the naive generators, kept as the reference ---

func refFiller(n int) []byte {
	if n <= 0 {
		return nil
	}
	const chunk = "abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	out := make([]byte, n)
	for i := range out {
		out[i] = chunk[i%len(chunk)]
	}
	return out
}

func refJSFiller(n int) []byte {
	var sb strings.Builder
	i := 0
	for sb.Len() < n {
		fmt.Fprintf(&sb, "function f%d(x){return x*%d+1;}\n", i, i)
		i++
	}
	out := sb.String()
	if len(out) > n {
		out = out[:n]
	}
	return []byte(out)
}

func refTextFiller(n int) string {
	const words = "lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod tempor incididunt ut labore "
	var sb strings.Builder
	for sb.Len() < n {
		sb.WriteString(words)
	}
	return sb.String()[:n]
}

func refSimpleCSS(classes []string, bloatRules int) string {
	var sb strings.Builder
	for i, c := range classes {
		fmt.Fprintf(&sb, ".%s{color:#%06x;margin:%dpx;padding:4px;display:block;}\n", c, i*1234+0x333333, i%16)
	}
	for i := 0; i < bloatRules; i++ {
		fmt.Fprintf(&sb, ".unused-%d .deep-%d>.child-%d{background:#%06x;border:1px solid #ccc;transform:translate(%dpx,%dpx);}\n",
			i, i, i, i*777+0x111111, i%7, i%11)
	}
	return sb.String()
}

func refFontFaceCSS(family, url string) string {
	return fmt.Sprintf("@font-face{font-family:\"%s\";src:url(%s) format(\"woff2\");}\n.wf-%s{font-family:\"%s\";}\n",
		family, url, family, family)
}

func TestFillerMatchesReference(t *testing.T) {
	backing := func() []byte {
		fillerBacking.mu.Lock()
		defer fillerBacking.mu.Unlock()
		return fillerBacking.buf
	}
	// The sizes bracket the period (62) and the backing's first size;
	// the last one is past whatever the backing holds by now, so it
	// always forces a grow.
	sizes := []int{0, 1, 61, 62, 63, 4096, fillerBackingMin - 1, fillerBackingMin, fillerBackingMin + 1}
	sizes = append(sizes, max(len(backing()), fillerBackingMin)+5)
	var held [][]byte
	for _, n := range sizes {
		got := filler(n)
		held = append(held, got)
		if !bytes.Equal(got, refFiller(n)) {
			t.Errorf("filler(%d) differs from the reference", n)
		}
		if (got == nil) != (n == 0) {
			t.Errorf("filler(%d) nil = %v", n, got == nil)
		}
		if cap(got) != len(got) {
			t.Errorf("filler(%d): cap %d != len %d — an append would write into the shared backing", n, cap(got), len(got))
		}
	}
	if filler(-3) != nil {
		t.Error("filler(-3) != nil")
	}
	// Growing replaced the buffer instead of extending it: payloads
	// handed out earlier sit in the old one, untouched.
	if early := held[1]; &early[0] == &backing()[0] {
		t.Error("the backing grew in place: earlier payloads alias the buffer that was refilled")
	}
	for i, b := range held {
		if !bytes.Equal(b, refFiller(sizes[i])) {
			t.Errorf("filler(%d) changed after the backing grew", sizes[i])
		}
	}
}

func TestJSFillerMatchesReference(t *testing.T) {
	// 29 bytes is exactly the first line; 2,900 crosses from one- to
	// two- and three-digit counters.
	for _, n := range []int{0, 1, 28, 29, 30, 61, 62, 63, 500, 2900, 240 * 1024} {
		if got, want := jsFiller(n), refJSFiller(n); !bytes.Equal(got, want) {
			t.Errorf("jsFiller(%d): %d bytes differ from the reference's %d", n, len(got), len(want))
		}
	}
}

func TestTextFillerMatchesReference(t *testing.T) {
	// The word list is 98 bytes.
	for _, n := range []int{0, 1, 61, 62, 63, 97, 98, 99, 900, 6000} {
		var sb strings.Builder
		textFiller(&sb, n)
		if got, want := sb.String(), refTextFiller(n); got != want {
			t.Errorf("textFiller(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestCSSMatchesReference(t *testing.T) {
	many := make([]string, 40) // past where margin wraps (i%16)
	for i := range many {
		many[i] = fmt.Sprintf("c%d", i)
	}
	for _, c := range []struct {
		classes []string
		bloat   int
	}{
		{nil, 0}, {nil, 1}, {[]string{"hero"}, 0}, {[]string{"hero", "masthead", "sec-0"}, 12},
		{many, 1800},
		// 0x111111 + i*777 leaves six hex digits past i = 20,152.
		{[]string{"x"}, 20200},
	} {
		if got, want := SimpleCSS(c.classes, c.bloat), refSimpleCSS(c.classes, c.bloat); got != want {
			t.Errorf("SimpleCSS(%d classes, %d bloat) differs from the reference", len(c.classes), c.bloat)
		}
	}
	for _, c := range [][2]string{{"", ""}, {"Web0", "https://h.test/fonts/f0.woff2"}, {"App", "/fonts/app.woff2"}} {
		if got, want := FontFaceCSS(c[0], c[1]), refFontFaceCSS(c[0], c[1]); got != want {
			t.Errorf("FontFaceCSS(%q, %q) = %q, want %q", c[0], c[1], got, want)
		}
	}
}

// --- allocation budget ---

// TestGenerateAllocBudget is a deterministic tripwire for the cold
// path: with payloads aliasing the shared backing, a generated site
// allocates its private bodies (HTML, CSS, JS) once plus its entries
// and index, well under half of what it serves. Before the rewrite the
// same measurement read 2.06 x the body bytes on RandomProfile and
// 1.70 x on TopProfile.
func TestGenerateAllocBudget(t *testing.T) {
	const sites = 16
	for _, c := range []struct {
		prof       Profile
		maxObjects float64 // per site; the old code made 7,437 and 11,451
	}{
		{RandomProfile(), 1500},
		{TopProfile(), 3000},
	} {
		var bodyBytes float64
		for i := 0; i < sites; i++ {
			for _, e := range generate(c.prof, i, 1).DB.Entries() {
				bodyBytes += float64(len(e.Body))
			}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < sites; i++ {
			generate(c.prof, i, 1)
		}
		runtime.ReadMemStats(&after)
		allocBytes := float64(after.TotalAlloc - before.TotalAlloc)
		objects := float64(after.Mallocs-before.Mallocs) / sites
		t.Logf("%s: %.0f KiB allocated for %.0f KiB of bodies per site (%.2f x), %.0f objects per site",
			c.prof.Name, allocBytes/sites/1024, bodyBytes/sites/1024, allocBytes/bodyBytes, objects)
		if allocBytes > 0.5*bodyBytes {
			t.Errorf("%s: allocated %.2f x the generated body bytes, budget 0.5 x", c.prof.Name, allocBytes/bodyBytes)
		}
		if objects > c.maxObjects {
			t.Errorf("%s: %.0f objects per site, budget %.0f", c.prof.Name, objects, c.maxObjects)
		}
	}
}

var benchSite *replay.Site

func BenchmarkGenerate(b *testing.B) {
	for _, prof := range []Profile{RandomProfile(), TopProfile()} {
		b.Run(prof.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSite = generate(prof, i%16, 1)
			}
		})
	}
}
