package noc

import (
	"net/http"

	"nocmap/internal/service"
)

// ServerConfig sizes an embedded mapping service: worker pool, bounded job
// queue, result store, per-job deadline and finished-job retention. The
// zero value is usable (defaults: one worker per CPU, 64-deep queue,
// 128-entry in-memory cache). Set Store (built with OpenStore) to swap the
// default in-memory result cache for a durable disk store or a
// consistent-hash sharded fleet store.
type ServerConfig = service.Config

// Server is the embeddable mapping service: the concurrent engine-run pool
// with canonical-digest result caching and single-flight deduplication,
// plus its versioned /v1 HTTP facade. cmd/nocserved is a thin shell over
// it; any Go program can mount Handler on its own listener.
type Server struct {
	svc     *service.Service
	handler http.Handler
}

// NewServer starts the worker pool; release it with Close.
func NewServer(cfg ServerConfig) *Server {
	svc := service.New(cfg)
	return &Server{svc: svc, handler: service.NewHandler(svc)}
}

// Handler returns the HTTP facade: /v1/map, /v1/batch, /v1/jobs/{id},
// /v1/designs/{digest}, /v1/stats, /v1/metrics, /v1/version and /healthz.
func (s *Server) Handler() http.Handler { return s.handler }

// Stats reads the pool and cache gauges.
func (s *Server) Stats() ServerStats { return s.svc.Stats() }

// Close stops the workers; in-flight runs finish first.
func (s *Server) Close() { s.svc.Close() }
