package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"carbonexplorer/internal/coordinator"
	"carbonexplorer/internal/experiments"
	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/grid"
	"carbonexplorer/internal/serve"
	"carbonexplorer/internal/sweep"
)

// fig14Sites are Figure 14's three representative regions.
var fig14Sites = []string{"OR", "UT", "NC"}

// queryRounds is how many times each pass's closed loop cycles through the
// seeded query mix.
const queryRounds = 40

// bench holds one run's state.
type bench struct {
	w    workload
	seed int64
	tmp  string
	tr   *tracer // nil in untraced runs

	// figIn are the experiment generators' cached site inputs, sweepIn the
	// sweep inputs built as `optimize` builds them.
	figIn   map[string]*explorer.Inputs
	sweepIn map[string]*explorer.Inputs

	serveH    swapHandler
	servePipe *pipeListener
	coordH    swapHandler
	coordURL  string
	servers   []*server
}

// pass is the measured outcome of one pipeline pass.
type pass struct {
	figures   time.Duration
	allocated uint64 // bytes the figures stage allocated (traced runs)
	fig14     map[string][]explorer.Outcome
	fig15     []experiments.Figure15Row

	siteTimes []time.Duration // per sweep site, in workload order
	results   []sweep.Result
	paths     []string
	ckHashes  []uint64      // fingerprints of the published checkpoints
	answer    time.Duration // serve.Load through the first answered query
	sweep     time.Duration // first sweep start through the first answer
	index     *serve.Index

	queryWall time.Duration
	latencies []time.Duration
	hashes    []uint64 // per distinct query, from this pass's responses
	bodies    [][]byte // first pass only: one body per distinct query
}

// swapHandler serves through whichever handler was stored last, so one
// listener set up before the measured work can serve each pass's index or
// coordinator.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := s.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "no handler yet", http.StatusServiceUnavailable)
}

// server is one HTTP server and the goroutine serving it.
type server struct {
	srv  *http.Server
	done chan error
}

// startServer serves h on l until stop.
func startServer(l net.Listener, h http.Handler) *server {
	s := &server{srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(l) }()
	return s
}

// pipeListener is a net.Listener whose connections are in-memory pipes
// that its dial hands out. The query stage reaches serve.Handler through
// one. Over loopback TCP on a 2-vCPU virtual machine, each request also
// paid the kernel's network path and the wake-ups of idle vCPUs, whose
// cost moved with the host: in three alternated runs each way, the p50
// ranged over 47–59 µs on loopback and 37.7–38.9 µs on a pipe (README.md).
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial connects to the listener; it fits http.Transport.DialContext.
func (l *pipeListener) dial(ctx context.Context, _, _ string) (net.Conn, error) {
	c, s := net.Pipe()
	select {
	case l.conns <- s:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// stop closes the server and waits for its goroutine to return.
func (s *server) stop() error {
	cerr := s.srv.Close()
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serving: %w", err)
	}
	return cerr
}

// figureSiteIDs lists the sites whose cached inputs the figures read.
func (b *bench) figureSiteIDs() []string {
	ids := b.w.figureSites
	if ids == nil {
		for _, s := range grid.Sites() {
			ids = append(ids, s.ID)
		}
	}
	seen := map[string]bool{}
	var out []string
	for _, id := range append(append([]string{}, fig14Sites...), ids...) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// setup builds every site year the passes read and starts the servers:
// the index's on an in-memory listener and, for the fleet, the
// coordinator's on loopback. It is the work setup_s times.
func (b *bench) setup() error {
	sp := b.tr.begin("setup", 0)
	defer b.tr.end(sp)
	b.figIn = map[string]*explorer.Inputs{}
	for _, id := range b.figureSiteIDs() {
		t := b.tr.begin("explorer.NewInputs "+id+" (experiments.SiteInputs)", sp)
		in, err := experiments.SiteInputs(id)
		b.tr.endSample(t, "explorer.inputs")
		if err != nil {
			return err
		}
		b.figIn[id] = in
	}
	b.sweepIn = map[string]*explorer.Inputs{}
	for _, id := range b.w.sweepSites {
		site, err := grid.SiteByID(id)
		if err != nil {
			return err
		}
		t := b.tr.begin("explorer.NewInputs "+id, sp)
		in, err := explorer.NewInputs(site)
		b.tr.endSample(t, "explorer.inputs")
		if err != nil {
			return err
		}
		b.sweepIn[id] = in
	}
	b.servePipe = newPipeListener()
	b.servers = append(b.servers, startServer(b.servePipe, &b.serveH))
	if b.w.engine == fleet {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("listening on loopback: %w", err)
		}
		b.servers = append(b.servers, startServer(ln, b.tr.wrapCoordinator(&b.coordH)))
		b.coordURL = "http://" + ln.Addr().String()
	}
	return nil
}

// close stops every server, returning the first error.
func (b *bench) close() error {
	var first error
	for _, s := range b.servers {
		if err := s.stop(); err != nil && first == nil {
			first = err
		}
	}
	b.servers = nil
	return first
}

// searches is the number of (site, strategy) searches one figures stage
// runs: Figure 14's three regions and Figure 15's sites, four strategies
// each.
func (b *bench) searches() int {
	n := len(b.w.figureSites)
	if b.w.figureSites == nil {
		n = len(grid.Sites())
	}
	return 4 * (len(fig14Sites) + n)
}

// runFigures regenerates Figures 14 and 15.
func (b *bench) runFigures(p *pass, parent int) error {
	sp := b.tr.begin("figures", parent)
	before := b.tr.allocated()
	start := time.Now()
	_, f14, err := experiments.Figure14()
	if err != nil {
		b.tr.end(sp)
		return fmt.Errorf("figure 14: %w", err)
	}
	_, rows, err := experiments.Figure15(b.w.figureSites)
	p.figures = time.Since(start)
	b.tr.end(sp)
	if err != nil {
		return fmt.Errorf("figure 15: %w", err)
	}
	p.fig14, p.fig15 = f14, rows
	p.allocated = b.tr.allocated() - before
	return nil
}

// sweepSite sweeps one site with the workload's engine and publishes its
// checkpoint under dir.
func (b *bench) sweepSite(ctx context.Context, id, dir string) (sweep.Result, string, error) {
	in := b.sweepIn[id]
	space := explorer.DefaultSpace(in)
	path := filepath.Join(dir, id+".json")
	var res sweep.Result
	var err error
	switch b.w.engine {
	case exhaustive:
		res, err = sweep.Run(ctx, in, space, explorer.RenewablesBatteryCAS, sweep.Options{
			Retries: 1, Checkpoint: sweep.CheckpointOptions{Path: path},
		})
	case adaptive:
		res, err = sweep.Run(ctx, in, space, explorer.RenewablesBatteryCAS, sweep.Options{
			Retries: 1, Plan: adaptivePlan, Checkpoint: sweep.CheckpointOptions{Path: path},
		})
	case fleet:
		res, err = coordinator.Run(ctx, in, space, explorer.RenewablesBatteryCAS, coordinator.Options{
			Workers: cores(), Endpoint: b.coordURL, Checkpoint: path, Retries: 1,
		})
	}
	if err != nil {
		return res, "", fmt.Errorf("sweeping %s: %w", id, err)
	}
	return res, path, nil
}

// runSweeps sweeps every site, loads the published checkpoints into a fresh
// index, and times until that index answers its first query.
func (b *bench) runSweeps(ctx context.Context, p *pass, dir string, parent int) error {
	sp := b.tr.begin("sweep", parent)
	defer b.tr.end(sp)
	start := time.Now()
	if b.w.engine == fleet {
		svc, err := coordinator.NewService(filepath.Join(dir, "coordinator"), coordinator.ServiceOptions{})
		if err != nil {
			return err
		}
		b.coordH.set(svc.Handler())
	}
	for _, id := range b.w.sweepSites {
		t := b.tr.begin("sweep "+id, sp)
		t0 := time.Now()
		res, path, err := b.sweepSite(ctx, id, dir)
		p.siteTimes = append(p.siteTimes, time.Since(t0))
		b.tr.siteDone()
		b.tr.end(t)
		if err != nil {
			return err
		}
		p.results = append(p.results, res)
		p.paths = append(p.paths, path)
	}
	t := b.tr.begin("serve.Load + first answer", sp)
	t0 := time.Now()
	ix, err := serve.Load(p.paths, serve.Options{})
	if err != nil {
		b.tr.end(t)
		return fmt.Errorf("loading the published checkpoints: %w", err)
	}
	b.tr.sample("serve.load", time.Since(t0))
	b.serveH.set(serve.Handler(ix))
	first := ix.Snapshots()[0].SpaceHash
	status, _, err := getOnce(ctx, b.servePipe.dial, serveBase+"/v1/sweeps/"+first+"/optimum")
	p.answer = time.Since(t0)
	p.sweep = time.Since(start)
	b.tr.end(t)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("first query answered %d", status)
	}
	p.index = ix
	for _, path := range p.paths {
		h, err := fileHash(path)
		if err != nil {
			return err
		}
		p.ckHashes = append(p.ckHashes, h)
	}
	return nil
}

// getOnce sends one GET with a throwaway client that connects with dial.
func getOnce(ctx context.Context, dial func(context.Context, string, string) (net.Conn, error), url string) (int, []byte, error) {
	c := &http.Client{Transport: &http.Transport{DialContext: dial}}
	defer c.CloseIdleConnections()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("building request: %w", err)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, fmt.Errorf("reading %s: %w", url, err)
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// runPass runs the figures and sweep stages of pass n; the caller runs the
// query stage against the index the pass loaded.
func (b *bench) runPass(ctx context.Context, n int) (*pass, string, error) {
	p := &pass{}
	dir := filepath.Join(b.tmp, fmt.Sprintf("pass-%03d", n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", fmt.Errorf("creating pass directory: %w", err)
	}
	sp := b.tr.begin(fmt.Sprintf("pass %d", n), 0)
	defer b.tr.end(sp)
	b.tr.startPass(n)
	settle()
	if err := b.runFigures(p, sp); err != nil {
		return p, dir, err
	}
	settle()
	if err := b.runSweeps(ctx, p, dir, sp); err != nil {
		return p, dir, err
	}
	return p, dir, nil
}

// settle collects the previous stage's garbage before the next stage's
// clock starts, so no stage pays for another's allocations.
func settle() { runtime.GC() }

// median returns the median of ds (the mean of the middle two for an even
// count); zero for none.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the q-quantile of ds by the nearest-rank rule.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}
