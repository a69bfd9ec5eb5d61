package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"carbonexplorer/internal/serve"
)

// query kinds of the seeded mix, one of each per seven queries.
const (
	kindOptimum      = iota // unconstrained optimum
	kindOptimumCost         // optimum under max_cost_usd
	kindOptimumCov          // optimum under min_coverage_pct
	kindOptimumBoth         // optimum under both constraints
	kindFrontier            // the whole frontier
	kindFrontierBand        // frontier in an embodied-carbon window
	kindCompare             // cross-sweep comparison under max_cost_usd
	numKinds
)

// routeOf names the serve route a query kind is answered by.
func routeOf(kind int) string {
	switch {
	case kind == kindCompare:
		return "compare"
	case kind >= kindFrontier:
		return "frontier"
	}
	return "optimum"
}

// serveBase prefixes every query path. The host name is never resolved:
// the client's transport dials the index's in-memory listener.
const serveBase = "http://serve"

// queriesPerKind is the number of distinct queries of each kind the mix
// holds for every loaded sweep.
const queriesPerKind = 10

// query is one request of the mix plus what its answer must be computed
// from: the sweep it names and its constraints (NaN = unconstrained).
type query struct {
	kind   int
	path   string
	hash   string
	maxUSD float64
	minCov float64
	minE   float64
	maxE   float64
}

// buildQueries draws the seeded mix from the loaded frontiers:
// queriesPerKind queries of each kind for every loaded sweep. Every
// constraint is a frontier point's own cost, coverage or embodied carbon,
// so every query has an answer. The seed picks the points. It does not
// change how many queries each sweep gets or how many points each
// embodied window spans, so the mix asks the server for the same work on
// every seed.
func buildQueries(ix *serve.Index, seed int64) []query {
	rng := rand.New(rand.NewSource(seed))
	snaps := ix.Snapshots()
	fmtF := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var qs []query
	for j := 0; j < queriesPerKind; j++ {
		for _, s := range snaps {
			pts := s.Frontier()
			for kind := 0; kind < numKinds; kind++ {
				p := pts[rng.Intn(len(pts))]
				qs = append(qs, newQuery(kind, s.SpaceHash, p, bandOf(pts, j, rng), fmtF))
			}
		}
	}
	return qs
}

// bandOf is the j-th embodied window of a sweep's mix, as frontier ranks:
// window j spans 1 + j·(n−1)/(queriesPerKind−1) points, from one point to
// the whole frontier, and the seed places it.
func bandOf(pts []serve.Point, j int, rng *rand.Rand) [2]serve.Point {
	n := len(pts)
	width := 1 + j*(n-1)/(queriesPerKind-1)
	lo := rng.Intn(n - width + 1)
	return [2]serve.Point{pts[lo], pts[lo+width-1]}
}

// newQuery builds one query of the given kind against the sweep hash,
// taking its constraints from the frontier point p and, for an embodied
// window, from the band's end points.
func newQuery(kind int, hash string, p serve.Point, band [2]serve.Point, fmtF func(float64) string) query {
	q := query{kind: kind, hash: hash, maxUSD: math.NaN(), minCov: math.NaN(), minE: math.NaN(), maxE: math.NaN()}
	base := "/v1/sweeps/" + hash
	v := url.Values{}
	switch kind {
	case kindOptimum:
		q.path = base + "/optimum"
	case kindOptimumCost:
		q.maxUSD = p.CostUSD
		v.Set("max_cost_usd", fmtF(q.maxUSD))
		q.path = base + "/optimum?" + v.Encode()
	case kindOptimumCov:
		q.minCov = p.Outcome.CoveragePct
		v.Set("min_coverage_pct", fmtF(q.minCov))
		q.path = base + "/optimum?" + v.Encode()
	case kindOptimumBoth:
		q.maxUSD, q.minCov = p.CostUSD, p.Outcome.CoveragePct
		v.Set("max_cost_usd", fmtF(q.maxUSD))
		v.Set("min_coverage_pct", fmtF(q.minCov))
		q.path = base + "/optimum?" + v.Encode()
	case kindFrontier:
		q.path = base + "/frontier"
	case kindFrontierBand:
		q.minE, q.maxE = float64(band[0].Outcome.Embodied), float64(band[1].Outcome.Embodied)
		v.Set("min_embodied_g", fmtF(q.minE))
		v.Set("max_embodied_g", fmtF(q.maxE))
		q.path = base + "/frontier?" + v.Encode()
	case kindCompare:
		q.hash = ""
		q.maxUSD = p.CostUSD
		v.Set("max_cost_usd", fmtF(q.maxUSD))
		q.path = "/v1/compare?" + v.Encode()
	}
	return q
}

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	wall      time.Duration
	latencies []time.Duration
	hashes    []uint64 // per distinct query
	bodies    [][]byte // per distinct query, when kept
	failed    int
	attempted int
}

// runQueries sends the mix rounds times from one closed-loop client, which
// waits for each answer before it sends the next query. Each latency runs
// from send to the last body byte read. A response that is not 200, or that
// differs from an earlier answer to the same query, counts as failed.
//
// The client shares the machine's cores with the server. With one client
// per core, each request also waited for the other client's work, and the
// query stage's time spread 1.6 to 2.5 times wider from pass to pass (see
// README.md), so the loop has one client.
func runQueries(ctx context.Context, dial func(context.Context, string, string) (net.Conn, error), qs []query, rounds int, keep bool) loopResult {
	out := loopResult{
		latencies: make([]time.Duration, 0, len(qs)*rounds),
		hashes:    make([]uint64, len(qs)),
		attempted: len(qs) * rounds,
	}
	if keep {
		out.bodies = make([][]byte, len(qs))
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true, DialContext: dial}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	var buf bytes.Buffer
	seen := make([]bool, len(qs))
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i, q := range qs {
			t0 := time.Now()
			status, err := fetch(ctx, client, serveBase+q.path, &buf)
			out.latencies = append(out.latencies, time.Since(t0))
			if err != nil || status != http.StatusOK {
				out.failed++
				continue
			}
			h := fnv.New64a()
			_, _ = h.Write(buf.Bytes()) // hash.Hash.Write never fails
			sum := h.Sum64()
			switch {
			case !seen[i]:
				seen[i] = true
				out.hashes[i] = sum
				if keep {
					out.bodies[i] = append([]byte(nil), buf.Bytes()...)
				}
			case out.hashes[i] != sum:
				out.failed++
			}
		}
	}
	out.wall = time.Since(start)
	return out
}

// fetch GETs url into buf and returns the status code.
func fetch(ctx context.Context, client *http.Client, url string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, fmt.Errorf("building request: %w", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, fmt.Errorf("reading %s: %w", url, err)
	}
	return resp.StatusCode, nil
}
