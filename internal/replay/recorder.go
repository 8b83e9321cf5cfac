package replay

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/cssx"
	"repro/internal/htmlx"
	"repro/internal/page"
)

// Recorder captures HTTP/1.1 traffic into a record database, playing the
// role of the paper's mitmproxy capture stage. It can be used in two
// modes: as a forward proxy handler (ServeHTTP) placed in front of a
// browser, or as a crawler (Record/Crawl) driven directly.
type Recorder struct {
	mu     sync.Mutex
	db     *DB
	client *http.Client
}

// NewRecorder builds a recorder writing into db, fetching upstream
// content with client (http.DefaultClient when nil).
func NewRecorder(db *DB, client *http.Client) *Recorder {
	if client == nil {
		client = http.DefaultClient
	}
	return &Recorder{db: db, client: client}
}

// DB returns the underlying database.
func (r *Recorder) DB() *DB {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.db
}

// ServeHTTP implements a recording forward proxy for plain HTTP
// requests: it forwards the request upstream, stores the response, and
// relays it to the client.
func (r *Recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "recorder proxy supports GET only", http.StatusMethodNotAllowed)
		return
	}
	target := req.URL.String()
	if !strings.HasPrefix(target, "http") {
		// Non-proxy request (no absolute-form URL): reconstruct.
		scheme := "http"
		if req.TLS != nil {
			scheme = "https"
		}
		target = fmt.Sprintf("%s://%s%s", scheme, req.Host, req.URL.RequestURI())
	}
	entry, err := r.record(target)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", entry.ContentType)
	w.WriteHeader(entry.Status)
	w.Write(entry.Body)
}

// record fetches one URL and stores the response, returning the entry.
func (r *Recorder) record(rawURL string) (*Entry, error) {
	u, err := page.ParseURL(rawURL, page.URL{})
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Get(rawURL)
	if err != nil {
		return nil, fmt.Errorf("replay: fetching %s: %w", rawURL, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, fmt.Errorf("replay: reading %s: %w", rawURL, err)
	}
	entry := &Entry{
		URL:         u,
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		Body:        body,
	}
	r.mu.Lock()
	r.db.Add(entry)
	r.mu.Unlock()
	return entry, nil
}

// Crawl records startURL and, recursively, every subresource reachable
// from its HTML and CSS (one site snapshot, like a browsing session
// through the capture proxy). It returns a replayable Site.
func (r *Recorder) Crawl(name, startURL string, maxObjects int) (*Site, error) {
	if maxObjects <= 0 {
		maxObjects = 500
	}
	base, err := page.ParseURL(startURL, page.URL{})
	if err != nil {
		return nil, err
	}
	queue := []string{startURL}
	seen := map[string]bool{startURL: true}
	for len(queue) > 0 && r.DB().Len() < maxObjects {
		url := queue[0]
		queue = queue[1:]
		entry, err := r.record(url)
		if err != nil {
			// Third-party fetch failures are normal during crawls; skip.
			continue
		}
		var refs []string
		switch entry.Kind() {
		case page.KindHTML:
			doc := htmlx.Parse(entry.Body)
			refs = doc.ExternalURLs()
			for _, st := range doc.InlineStyles {
				sheet := cssx.ParseString(st.Content)
				refs = append(refs, sheet.Imports...)
				refs = append(refs, sheet.AssetURLs...)
			}
		case page.KindCSS:
			sheet := cssx.Parse(entry.Body)
			refs = append(refs, sheet.Imports...)
			refs = append(refs, sheet.AssetURLs...)
			for _, ff := range sheet.FontFaces {
				if ff.URL != "" {
					refs = append(refs, ff.URL)
				}
			}
		}
		for _, ref := range refs {
			u, err := page.ParseURL(ref, entry.URL)
			if err != nil {
				continue
			}
			abs := u.String()
			if !seen[abs] {
				seen[abs] = true
				queue = append(queue, abs)
			}
		}
	}
	return NewSite(name, base, r.DB()), nil
}
