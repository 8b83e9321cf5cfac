// Command replay-server serves a recorded or modelled site over real TCP
// using the repository's from-scratch HTTP/2 stack (h2c: HTTP/2 without
// TLS), optionally pushing resources according to a strategy — a minimal
// stand-in for the paper's h2o + FastCGI record server.
//
// Usage:
//
//	replay-server -site w1 -addr :8443
//	replay-server -load snapshot.site -strategy push-all
//
// Probe with any h2c-capable client, e.g.:
//
//	curl --http2-prior-knowledge http://localhost:8443/
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"

	"repro/internal/corpus"
	"repro/internal/h2"
	"repro/internal/replay"
	"repro/internal/strategy"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8443", "listen address")
	siteID := flag.String("site", "s2", "built-in site: s1..s10, w1..w20, or 'random'")
	load := flag.String("load", "", "load a recorded .site file instead of a built-in")
	stratName := flag.String("strategy", "no-push", "no-push|push-all|push-critical|push-critical-optimized")
	flag.Parse()

	site, err := pickSite(*siteID, *load)
	if err != nil {
		log.Fatal(err)
	}
	st, err := pickStrategy(*stratName)
	if err != nil {
		log.Fatal(err)
	}
	site, plan := st.Apply(site, nil)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving %s on http://%s/ (h2c) with strategy %q", site.Name, *addr, st.Name())
	log.Printf("probe: curl --http2-prior-knowledge http://%s/", *addr)
	for {
		conn, err := ln.Accept()
		if err != nil {
			log.Fatal(err)
		}
		go serveConn(conn, site, plan)
	}
}

// serveConn serves one accepted connection until the peer closes it or
// the transport fails, then closes it and logs a transport error.
func serveConn(conn net.Conn, site *replay.Site, plan replay.Plan) {
	srv := h2.NewServer(h2.DefaultSettings(), func(sw *h2.ServerStream, req h2.Request) {
		authority := req.Authority
		entry := site.DB.Lookup(authority, req.Path)
		if entry == nil {
			// Host headers from curl (localhost:8443) won't match the
			// recorded hostnames: fall back to the base host.
			entry = site.DB.Lookup(site.Base.Authority, req.Path)
		}
		if entry == nil {
			sw.Respond(404, "text/plain", []byte("not in record database\n"))
			return
		}
		var pushed []*h2.ServerStream
		var entries []*replay.Entry
		for _, u := range plan.PushesFor(entry.URL.String()) {
			pe := site.DB.Get(u)
			if pe == nil {
				continue
			}
			psw := sw.Push(h2.Request{Method: "GET", Scheme: "http",
				Authority: req.Authority, Path: pe.URL.Path})
			if psw == nil {
				break
			}
			pushed = append(pushed, psw)
			entries = append(entries, pe)
		}
		if spec, ok := plan.Interleave[entry.URL.String()]; ok && len(pushed) > 0 {
			ids := make([]uint32, len(pushed))
			for i, p := range pushed {
				ids[i] = p.St.ID
			}
			sw.Interleave(spec.OffsetBytes, ids)
		}
		sw.Respond(entry.Status, entry.ContentType, entry.Body)
		for i, psw := range pushed {
			psw.Respond(entries[i].Status, entries[i].ContentType, entries[i].Body)
		}
	})
	io := h2.RunIO(srv.Core, conn)
	defer io.Close()
	<-io.Done()
	if err := io.Err(); err != nil {
		log.Printf("%s: %v", conn.RemoteAddr(), err)
	}
}

func pickSite(id, load string) (*replay.Site, error) {
	if load != "" {
		return replay.LoadSite(load)
	}
	if id == "random" {
		return corpus.Generate(corpus.RandomProfile(), 0, 1), nil
	}
	if len(id) > 0 && id[0] == 'w' {
		if s := corpus.PopularSite(id); s != nil {
			return s, nil
		}
	}
	for i, s := range corpus.SyntheticSites() {
		if fmt.Sprintf("s%d", i+1) == id {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown site %q", id)
}

func pickStrategy(name string) (strategy.Strategy, error) {
	switch name {
	case "no-push":
		return strategy.NoPush{}, nil
	case "push-all":
		return strategy.PushAll{}, nil
	case "push-critical":
		return strategy.PushCritical{}, nil
	case "push-critical-optimized":
		return strategy.PushCriticalOptimized{}, nil
	}
	fmt.Fprintln(os.Stderr, "strategies: no-push, push-all, push-critical, push-critical-optimized")
	return nil, fmt.Errorf("unknown strategy %q", name)
}
