package httpapi

import (
	"compress/gzip"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// Gzip response middleware for the bulky read-plane payloads (metric
// queries, batch and pipeline queries, snapshots, experiment results,
// telemetry scrapes). Compression is negotiated via Accept-Encoding and
// applied per-route rather than globally: HTML dashboards are small, and
// the watch streams must never be buffered by a compressor.

// gzPool recycles gzip writers; they are expensive to allocate. They
// compress at BestSpeed, as servers that compress on the fly usually do:
// on the plane's JSON the default level costs about twice the CPU per
// body for 15–17 % smaller output, and its Reset clears 640 KB of hash
// chains per request where BestSpeed's bumps an offset. The price is
// memory: a BestSpeed writer holds ≈1.2 MB against the default's ≈0.8 MB.
var gzPool = sync.Pool{
	New: func() any {
		gz, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed) // a valid level never errors
		return gz
	},
}

// gzipResponseWriter funnels the handler's body through a gzip stream,
// counting the uncompressed input; the compressed output is counted by the
// countWriter the stream drains into. The pair feeds the plane's gzip
// savings counters.
type gzipResponseWriter struct {
	http.ResponseWriter
	gz *gzip.Writer
	in int64 // uncompressed bytes the handler wrote
}

func (g *gzipResponseWriter) Write(b []byte) (int, error) {
	n, err := g.gz.Write(b)
	g.in += int64(n)
	return n, err
}

// countWriter counts the bytes gzip emits onto the real response writer.
type countWriter struct {
	w   http.ResponseWriter
	out int64
}

func (c *countWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.out += int64(n)
	return n, err
}

// acceptsGzip reports whether an Accept-Encoding value admits gzip: the
// coding list names gzip (or its x-gzip alias, in any case) with a nonzero
// weight. RFC 9110 §12.5.3: "q=0" marks a coding as not acceptable.
func acceptsGzip(header string) bool {
	for header != "" {
		var coding string
		coding, header, _ = strings.Cut(header, ",")
		name, params, _ := strings.Cut(coding, ";")
		name = strings.TrimSpace(name)
		if !strings.EqualFold(name, "gzip") && !strings.EqualFold(name, "x-gzip") {
			continue
		}
		for params != "" {
			var param string
			param, params, _ = strings.Cut(params, ";")
			key, val, _ := strings.Cut(param, "=")
			if strings.EqualFold(strings.TrimSpace(key), "q") {
				q, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
				return err != nil || q > 0 // a malformed weight does not refuse
			}
		}
		return true
	}
	return false
}

// withGzip compresses the wrapped handler's response when the client
// accepts gzip.
func withGzip(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !acceptsGzip(r.Header.Get("Accept-Encoding")) {
			h(w, r)
			return
		}
		w.Header().Set("Content-Encoding", "gzip")
		w.Header().Add("Vary", "Accept-Encoding")
		gz := gzPool.Get().(*gzip.Writer)
		cw := &countWriter{w: w}
		gz.Reset(cw)
		grw := &gzipResponseWriter{ResponseWriter: w, gz: gz}
		defer func() {
			if p := recover(); p != nil {
				// Do NOT close (i.e. flush) the gzip stream on a panic: an
				// unflushed stream means the status line is still unsent,
				// so the recovery middleware can answer with a JSON 500 —
				// which must go out unencoded, hence the header rollback.
				// (A handler that already flushed real output is beyond
				// saving here, exactly as on non-gzipped routes.)
				w.Header().Del("Content-Encoding")
				gzPool.Put(gz)
				panic(p)
			}
			_ = gz.Close() // flushes; the status line is long gone on error
			gzPool.Put(gz)
			telGzipUncompressed.Add(uint64(grw.in))
			telGzipCompressed.Add(uint64(cw.out))
		}()
		h(grw, r)
	}
}
