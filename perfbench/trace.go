package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"carbonexplorer/internal/explorer"
)

// span is one timed call into a layer, made from the benchmark's own code.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// routeStats accumulates server time per coordinator route.
type routeStats struct {
	count int
	total time.Duration
}

// evalLog counts evaluations through one Inputs' EvalHook and, during the
// first pass, records the designs in the order the workers took them.
type evalLog struct {
	count   atomic.Int64
	mu      sync.Mutex
	record  bool
	designs []explorer.Design
}

// tracer keeps spans and counters in memory; the traced run writes them out
// when it ends. Every method is a no-op on a nil tracer, which is what an
// untraced run carries.
type tracer struct {
	mu      sync.Mutex
	spans   []span
	samples map[string][]time.Duration

	// figLogs and sweepLogs are keyed by site: the figure generators'
	// cached inputs and the sweep inputs carry separate hooks.
	figLogs   map[string]*evalLog
	sweepLogs map[string]*evalLog

	// figEvals0, figAlloc0 and the sweep counts are the first pass's
	// evaluations and the bytes its figures stage allocated.
	figEvals0       int64
	figAlloc0       uint64
	sweepEvals0     int64
	sweepSiteEvals0 map[string]int64

	routes       map[string]*routeStats
	requests     int
	uploadBytes  int64
	lastComplete time.Time
	tails        []time.Duration
}

// firstPassDone snapshots the evaluation counters after pass 0, and the
// bytes its figures stage allocated.
func (t *tracer) firstPassDone(figAlloc uint64) {
	if t == nil {
		return
	}
	t.figAlloc0 = figAlloc
	t.figEvals0 = evals(t.figLogs)
	t.sweepEvals0 = evals(t.sweepLogs)
	t.sweepSiteEvals0 = map[string]int64{}
	for site, l := range t.sweepLogs {
		t.sweepSiteEvals0[site] = l.count.Load()
	}
}

// allocated reads the process's cumulative heap allocation in traced runs.
func (t *tracer) allocated() uint64 {
	if t == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func newTracer() *tracer {
	return &tracer{
		samples:   map[string][]time.Duration{},
		figLogs:   map[string]*evalLog{},
		sweepLogs: map[string]*evalLog{},
		routes:    map[string]*routeStats{},
	}
}

func msSinceStart(t time.Time) float64 { return float64(t.Sub(processStart)) / 1e6 }

// begin opens a span under parent (0 = root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: msSinceStart(time.Now())})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = msSinceStart(time.Now())
	return time.Duration((s.End - s.Start) * 1e6)
}

// endSample closes span id and files its duration under key.
func (t *tracer) endSample(id int, key string) {
	if t == nil {
		return
	}
	t.sample(key, t.end(id))
}

// sample files one duration under key.
func (t *tracer) sample(key string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples[key] = append(t.samples[key], d)
}

// startPass notes the pass number: designs are recorded in pass 0 only.
func (t *tracer) startPass(n int) {
	if t == nil {
		return
	}
	for _, logs := range []map[string]*evalLog{t.figLogs, t.sweepLogs} {
		for _, l := range logs {
			l.mu.Lock()
			l.record = n == 0
			l.mu.Unlock()
		}
	}
}

// hook installs a counting EvalHook on in and returns its log.
func (t *tracer) hook(logs map[string]*evalLog, site string, in *explorer.Inputs) {
	if t == nil {
		return
	}
	l := &evalLog{}
	logs[site] = l
	in.EvalHook = func(d explorer.Design) error {
		l.count.Add(1)
		l.mu.Lock()
		if l.record {
			l.designs = append(l.designs, d)
		}
		l.mu.Unlock()
		return nil
	}
}

// evals sums the evaluation counts of logs.
func evals(logs map[string]*evalLog) int64 {
	var n int64
	for _, l := range logs {
		n += l.count.Load()
	}
	return n
}

// wrapCoordinator times every coordinator route on the server side and
// counts requests and uploaded bytes; untraced runs serve h unwrapped.
func (t *tracer) wrapCoordinator(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := strings.TrimPrefix(r.URL.Path, "/v1/")
		t0 := time.Now()
		cr := &countingReader{r: r.Body}
		r.Body = cr
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		t.mu.Lock()
		defer t.mu.Unlock()
		rs := t.routes[route]
		if rs == nil {
			rs = &routeStats{}
			t.routes[route] = rs
		}
		rs.count++
		rs.total += d
		t.requests++
		if route == "heartbeat" || route == "complete" {
			t.uploadBytes += cr.n
		}
		if route == "complete" {
			t.lastComplete = time.Now()
		}
	})
}

// siteDone records the poll tail of a coordinated sweep that just returned:
// the time since the coordinator answered its last lease completion.
func (t *tracer) siteDone() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.lastComplete.IsZero() {
		t.tails = append(t.tails, time.Since(t.lastComplete))
		t.lastComplete = time.Time{}
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	t.mu.Lock()
	data, err := json.MarshalIndent(t.spans, "", " ")
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
