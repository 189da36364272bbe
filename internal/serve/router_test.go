package serve

import (
	"net/http"
	"testing"
)

func testRouter() *Router {
	rt := &Router{}
	mark := func(name string) Handler {
		return func(w http.ResponseWriter, r *http.Request, param string) {}
	}
	rt.Handle(http.MethodGet, "/healthz", mark("healthz"))
	rt.Handle(http.MethodPost, "/campaigns", mark("submit"))
	rt.Handle(http.MethodGet, "/campaigns/{id}", mark("status"))
	rt.Handle(http.MethodGet, "/campaigns/{id}/report", mark("report"))
	rt.Handle(http.MethodPost, "/campaigns/{id}/cancel", mark("cancel"))
	rt.Handle(http.MethodGet, "/debug/pprof/*", mark("pprof"))
	return rt
}

func TestRouterMatch(t *testing.T) {
	rt := testRouter()
	cases := []struct {
		method, path string
		status       int
		param        string
	}{
		{"GET", "/healthz", 200, ""},
		{"POST", "/campaigns", 200, ""},
		{"GET", "/campaigns/abc123", 200, "abc123"},
		{"GET", "/campaigns/abc123/report", 200, "abc123"},
		{"POST", "/campaigns/abc123/cancel", 200, "abc123"},
		{"GET", "/debug/pprof/", 200, ""},
		{"GET", "/debug/pprof/heap", 200, "heap"},
		{"GET", "/debug/pprof/goroutine", 200, "goroutine"},
		{"GET", "/campaigns/abc/123/report", 404, ""}, // param may not span segments
		{"GET", "/campaigns//report", 404, ""},        // empty param never matches
		{"DELETE", "/campaigns/abc123", 405, ""},
		{"GET", "/campaigns", 405, ""},
		{"POST", "/healthz", 405, ""},
		{"GET", "/nope", 404, ""},
		{"GET", "/", 404, ""},
	}
	for _, c := range cases {
		h, param, status := rt.match(c.method, c.path)
		if status != c.status {
			t.Fatalf("%s %s: status %d, want %d", c.method, c.path, status, c.status)
		}
		if c.status == 200 {
			if h == nil {
				t.Fatalf("%s %s: matched but no handler", c.method, c.path)
			}
			if param != c.param {
				t.Fatalf("%s %s: param %q, want %q", c.method, c.path, param, c.param)
			}
		} else if h != nil {
			t.Fatalf("%s %s: unexpected handler", c.method, c.path)
		}
	}
}

func TestRouterMatchDoesNotAllocate(t *testing.T) {
	rt := testRouter()
	paths := []string{"/healthz", "/campaigns/abc123", "/campaigns/abc123/report", "/debug/pprof/heap"}
	n := testing.AllocsPerRun(1000, func() {
		for _, p := range paths {
			if _, _, status := rt.match(http.MethodGet, p); status == 0 {
				t.Fatal("impossible")
			}
		}
	})
	if n != 0 {
		t.Fatalf("router match allocates %.1f objects per run, want 0", n)
	}
}

func TestRouterRejectsMalformedPatterns(t *testing.T) {
	for _, pattern := range []string{"", "campaigns", "/a/{x}/{y}", "/a/{x}/*"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("pattern %q accepted", pattern)
				}
			}()
			rt := &Router{}
			rt.Handle(http.MethodGet, pattern, func(http.ResponseWriter, *http.Request, string) {})
		}()
	}
}
