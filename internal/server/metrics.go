package server

import (
	"net/http"
	"strconv"
	"time"

	"github.com/discdiversity/disc/internal/telemetry"
)

// Request metrics. Per-route series are registered once, when Handler
// wires the mux — the serving path only resolves a status class to a
// pre-registered counter and feeds one histogram, so instrumentation
// adds no per-request registry locking or label formatting.
var (
	metInflight = telemetry.Default().Gauge("disc_http_inflight_requests",
		"Requests currently being served (admitted, not yet responded).")
	metShed = telemetry.Default().Counter("disc_http_shed_total",
		"Requests shed with 503 by the admission limiter since process start.")
	metPanics = telemetry.Default().Counter("disc_http_panics_total",
		"Handler panics recovered into 500 responses since process start.")
	metBodyCap = telemetry.Default().Counter("disc_http_body_cap_rejections_total",
		"Request bodies rejected for exceeding the configured size cap.")
	metNotReady = telemetry.Default().Counter("disc_http_not_ready_total",
		"Requests refused with 503 while the server was still recovering.")
)

// cacheStats are the result cache's series (see cache.go). Servers
// share the process-wide ones; tests pass a private registry.
type cacheStats struct {
	hits, misses, evictions, coalesced *telemetry.Counter
	bytes, entries                     *telemetry.Gauge
}

func newCacheStats(reg *telemetry.Registry) cacheStats {
	return cacheStats{
		hits: reg.Counter("disc_result_cache_hits_total",
			"Batch answers (select, zoom, localzoom, result fetch) served from the result cache."),
		misses: reg.Counter("disc_result_cache_misses_total",
			"Batch answers computed because the result cache did not hold them."),
		evictions: reg.Counter("disc_result_cache_evictions_total",
			"Entries evicted from the result cache to stay within its byte budget."),
		coalesced: reg.Counter("disc_result_cache_coalesced_total",
			"Cache misses that waited for an identical in-flight computation instead of computing."),
		bytes: reg.Gauge("disc_result_cache_bytes",
			"Estimated bytes held by the result cache."),
		entries: reg.Gauge("disc_result_cache_entries",
			"Entries held by the result cache."),
	}
}

// statusClasses are the code label values, indexed by status/100 - 2.
var statusClasses = [...]string{"2xx", "3xx", "4xx", "5xx"}

// routeMetrics holds the pre-registered series of one route.
type routeMetrics struct {
	codes   [len(statusClasses)]*telemetry.Counter
	latency *telemetry.Histogram
}

// newRouteMetrics registers the per-route series. The route label is
// the mux pattern (wildcards included), so cardinality is the route
// count, not the URL space.
func newRouteMetrics(method, route string) *routeMetrics {
	rm := &routeMetrics{}
	reg := telemetry.Default()
	for i, class := range statusClasses {
		rm.codes[i] = reg.Counter(
			`disc_http_requests_total{route="`+route+`",method="`+method+`",code="`+class+`"}`,
			"Requests served, by route, method and status class.")
	}
	rm.latency = reg.Histogram(`disc_http_request_seconds{route="`+route+`"}`,
		"Wall time from handler entry to response completion, by route.")
	return rm
}

// observe records one served request.
func (rm *routeMetrics) observe(status int, d time.Duration) {
	i := status/100 - 2
	if i < 0 || i >= len(statusClasses) {
		i = len(statusClasses) - 1 // 1xx cannot happen here; bucket as 5xx
	}
	rm.codes[i].Inc()
	rm.latency.Observe(d.Nanoseconds())
}

// statusWriter records the response status for metrics and access logs.
// Unwrap keeps http.NewResponseController working through it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(status int) {
	if sw.status == 0 {
		sw.status = status
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// instrument wraps one routed handler with its per-route series and the
// debug-level access log: status class and latency per request, plus
// method/path/status/duration/request id fields when access logging is
// enabled.
func (s *Server) instrument(method, route string, h http.HandlerFunc) http.Handler {
	rm := newRouteMetrics(method, route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		d := time.Since(start)
		rm.observe(sw.status, d)
		s.logger().Debug("request",
			"method", r.Method,
			"route", route,
			"path", r.URL.Path,
			"status", sw.status,
			"duration_ms", float64(d)/float64(time.Millisecond),
			"request_id", requestIDFrom(r))
	})
}

// handleMetrics renders the process-wide registry in the Prometheus
// text exposition format. Routed around the hardening chain (like the
// health probes): a scrape must succeed even when the server is shedding
// load — that is exactly when the numbers matter.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	_ = telemetry.Default().WritePrometheus(w)
}

// requestIDKey is the context key carrying the per-request id.
type requestIDKey struct{}

// requestIDFrom returns the id assigned by the requestID middleware, or
// "" for requests that bypassed it (health probes, direct tests).
func requestIDFrom(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey{}).(string)
	return id
}

// formatRequestID renders a request counter value as the log/header id.
func formatRequestID(n uint64) string {
	return "r" + strconv.FormatUint(n, 10)
}
