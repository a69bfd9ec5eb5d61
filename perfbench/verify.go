package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"

	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/sweep"
)

// check runs every output check on the first pass's outputs and returns
// the failures.
func (b *bench) check(p *pass, qs []query) []error {
	var errs []error
	add := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}
	rng := rand.New(rand.NewSource(b.seed))

	// Figures.
	add(checkNesting(p.fig15))
	add(checkFigure14(p.fig14, p.fig15))
	for _, r := range p.fig15 {
		in := b.figIn[r.SiteID]
		add(checkResimulated(in, r.Optimal))
		add(checkArgminSample(in, section5Space(in).Enumerate(r.Strategy, in.AvgDemandMW()), r.Optimal, rng, argminSamples))
	}

	// Sweeps.
	sweeps := map[string]pricedSweep{}
	for i, id := range b.w.sweepSites {
		in := b.sweepIn[id]
		ck, err := sweep.ReadCheckpoint(p.paths[i])
		if err != nil {
			add(err)
			continue
		}
		add(checkPublished(ck, p.results[i]))
		space := explorer.DefaultSpace(in)
		if b.w.engine == adaptive {
			add(checkReevaluated(in, ck.Frontier))
			add(checkLatticeDominated(in, coarseLattice(in, space, adaptivePlan.CoarsePointsPerDim), ck.Frontier))
		} else {
			designs := space.Enumerate(explorer.RenewablesBatteryCAS, in.AvgDemandMW())
			add(checkComplete(ck, len(designs)))
			if ck.Best != nil {
				add(checkSampled(in, designs, ck.Frontier, *ck.Best, rng, sweepSamples))
			}
		}
		ps, err := priceSweep(ck, in.PeakDemandMW())
		add(err)
		sweeps[ps.hash] = ps
	}

	// Served answers.
	for i, q := range qs {
		if p.bodies[i] == nil {
			add(fmt.Errorf("%s: no answer kept", q.path))
			continue
		}
		add(checkAnswer(q, p.bodies[i], sweeps))
	}
	return errs
}

// samePass checks that a later pass reproduced the first pass's outputs:
// the figure optima, the published checkpoint bytes and every served
// answer.
func samePass(first, p *pass) error {
	var errs []error
	if len(first.fig15) != len(p.fig15) {
		errs = append(errs, fmt.Errorf("figure 15 has %d rows, first pass %d", len(p.fig15), len(first.fig15)))
	} else {
		for i := range p.fig15 {
			if !sameBits(total(p.fig15[i].Optimal), total(first.fig15[i].Optimal)) {
				errs = append(errs, fmt.Errorf("figure 15 row %d optimum changed between passes", i))
			}
		}
	}
	for _, site := range fig14Sites {
		if len(p.fig14[site]) != len(first.fig14[site]) {
			errs = append(errs, fmt.Errorf("figure 14 %s frontier changed between passes", site))
		}
	}
	for i := range p.ckHashes {
		if p.ckHashes[i] != first.ckHashes[i] {
			errs = append(errs, fmt.Errorf("published checkpoint %d differs from the first pass's", i))
		}
	}
	for i := range p.hashes {
		if p.hashes[i] != first.hashes[i] {
			errs = append(errs, fmt.Errorf("query %d answered differently from the first pass", i))
		}
	}
	return errors.Join(errs...)
}

// fileHash fingerprints a published checkpoint.
func fileHash(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("reading %s: %w", path, err)
	}
	h := fnv.New64a()
	_, _ = h.Write(data) // hash.Hash.Write never fails
	return h.Sum64(), nil
}

// fileSize returns a file's size in bytes.
func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, fmt.Errorf("sizing %s: %w", path, err)
	}
	return fi.Size(), nil
}
