package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Server exposes a Collector over HTTP: Prometheus text on
// /metrics, the JSONL event trace on /trace, and the standard pprof
// handlers under /debug/pprof/. dprnode starts one with -obs addr:port.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr (":0" picks a free port) and serves col in a
// background goroutine until Close.
func Serve(addr string, col *Collector) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := col.WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := col.DumpTrace(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	// The pprof handlers are registered explicitly on a private mux so
	// importing this package never touches http.DefaultServeMux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go func() {
		// Serve returns ErrServerClosed (or a listener error) on Close;
		// either way the goroutine just exits.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound host:port.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the server and its listener.
func (s *Server) Close() error { return s.srv.Close() }
