package scheduler

import "carbonexplorer/internal/timeseries"

// Scratch holds the reusable working memory for SimulateScratch. One Scratch
// belongs to exactly one goroutine (the sweep gives each worker its own); it
// grows to the largest horizon it has seen and is then allocation-free for
// every subsequent simulation at that horizon or below.
type Scratch struct {
	balanced []float64
	gridDraw []float64
	soc      []float64
	surplus  []float64
	// deferred[d] is energy (MWh) whose deadline is hour d — the slice form
	// of Simulate's deferred map, indexed directly instead of hashed. The
	// invariant matching the map is: a "present" entry is exactly a positive
	// value, and pending counts those entries.
	deferred []float64
	pending  int
	// head is a lower bound on the earliest live deadline: every ledger
	// slot below it is zero, so pullDeferred starts its scan there rather
	// than at the current hour. Deadlines arrive in non-decreasing order,
	// so only a deferral clamped to the final hour after a pull drained that
	// slot can land below it; the deferral then lowers it.
	head int
	// socDirty and deferredDirty record that a previous run may have left
	// nonzero samples in soc / deferred. The simulation loops write every
	// sample of balanced, gridDraw, and surplus, but soc is only written
	// with a battery and the deferred ledger only with flexible load — so
	// those two are re-zeroed lazily, over their full capacity, only when a
	// run that could have dirtied them has happened.
	socDirty      bool
	deferredDirty bool
}

// grow ensures every buffer holds n samples with soc and deferred all-zero.
func (s *Scratch) grow(n int) {
	if cap(s.balanced) < n {
		s.balanced = make([]float64, n)
		s.gridDraw = make([]float64, n)
		s.soc = make([]float64, n)
		s.surplus = make([]float64, n)
		s.deferred = make([]float64, n)
		s.pending = 0
		s.socDirty = false
		s.deferredDirty = false
		return
	}
	s.balanced = s.balanced[:n]
	s.gridDraw = s.gridDraw[:n]
	s.soc = s.soc[:n]
	s.surplus = s.surplus[:n]
	s.deferred = s.deferred[:n]
	if s.socDirty {
		timeseries.Zero(s.soc[:cap(s.soc)])
		s.socDirty = false
	}
	if s.deferredDirty {
		timeseries.Zero(s.deferred[:cap(s.deferred)])
		s.deferredDirty = false
		s.pending = 0
	}
}

// RawResult is the flat-buffer form of Result. The slices alias the Scratch
// that produced them and are valid only until its next SimulateScratch call;
// callers that need to retain a trace must copy it (timeseries.FromValues).
type RawResult struct {
	Balanced          []float64
	GridDraw          []float64
	BatterySoC        []float64
	Surplus           []float64
	ForcedDeadlineMWh float64
	PeakLoadMW        float64
	// SurplusMWh is Σ Surplus, summed in hour order from zero while the
	// simulation writes each hour (the same adds, in the same order, as a
	// separate pass over Surplus), so callers need not re-read the trace.
	SurplusMWh float64
}

// SimulateScratch is Simulate without per-call allocation: the same policy,
// arithmetic, and operation order, writing into s instead of fresh Series.
// Results are bit-identical to Simulate for every input (the deferred ledger
// is a directly-indexed slice here, but entries are probed in the same
// ascending-deadline order the map version scans, so every float add happens
// in the same sequence).
//
// Allocation-free in the steady state: s.grow only allocates when the
// horizon exceeds every previous call's. The grow path stays unannotated —
// growth is its whole job — while this function and pullDeferred carry
// //carbonlint:hotpath so hotalloc rejects new allocating constructs.
//
//carbonlint:hotpath
func SimulateScratch(cfg SimConfig, s *Scratch) (RawResult, error) {
	if !cfg.AssumeValid {
		if err := cfg.Validate(); err != nil {
			return RawResult{}, err
		}
	}
	n := cfg.Demand.Len()
	window := cfg.DeferralWindowHours
	if window == 0 {
		window = 24
	}
	s.grow(n)
	s.head = 0
	if cfg.Battery != nil {
		s.socDirty = true
	}
	if cfg.FlexibleRatio > 0 {
		s.deferredDirty = true
	}

	res := RawResult{
		Balanced:   s.balanced,
		GridDraw:   s.gridDraw,
		BatterySoC: s.soc,
		Surplus:    s.surplus,
	}

	demand := cfg.Demand.Raw()
	renewable := cfg.Renewable.Raw()

	// Renewables-only fast path: with no battery and no flexible load, the
	// deferral ledger provably never gains an entry and the battery branches
	// never fire, so each hour reduces to a pure supply/demand split —
	// bit-identical to the general loop below with forced=0 throughout.
	if cfg.Battery == nil && cfg.FlexibleRatio == 0 {
		peak, surplusSum := 0.0, 0.0
		for h := 0; h < n; h++ {
			load := demand[h]
			supply := renewable[h]
			surplus, draw := 0.0, 0.0
			if supply >= load {
				surplus = supply - load
			} else {
				draw = load - supply
			}
			s.surplus[h] = surplus
			s.gridDraw[h] = draw
			surplusSum += surplus
			s.balanced[h] = load
			if load > peak {
				peak = load
			}
		}
		res.PeakLoadMW = peak
		res.SurplusMWh = surplusSum
		return res, nil
	}

	surplusSum := 0.0
	for h := 0; h < n; h++ {
		load := demand[h]

		// Deadline-expired work must run now.
		forced := s.deferred[h]
		if forced > 0 {
			s.deferred[h] = 0
			s.pending--
		}
		load += forced

		supply := renewable[h]

		switch {
		case supply >= load:
			surplus := supply - load
			// Pull future deferred work forward into the surplus, earliest
			// deadline first, bounded by the capacity cap.
			if surplus > 0 && s.pending > 0 {
				room := surplus
				if cfg.CapacityMW > 0 {
					if capRoom := cfg.CapacityMW - load; capRoom < room {
						room = capRoom
					}
				}
				if room > 0 {
					// Entries created before hour h all have deadlines below
					// h+window, so the scan (which Simulate runs to n) can
					// stop there without skipping any.
					to := h + window
					if to > n-1 {
						to = n - 1
					}
					pulled := s.pullDeferred(h, to, room)
					load += pulled
					surplus -= pulled
				}
			}
			// Charge the battery with what remains.
			if cfg.Battery != nil && surplus > 0 {
				surplus -= cfg.Battery.Charge(surplus, 1)
			}
			s.surplus[h] = surplus
			s.gridDraw[h] = 0

		default:
			deficit := load - supply
			// Battery first.
			if cfg.Battery != nil && deficit > 0 {
				deficit -= cfg.Battery.Discharge(deficit, 1)
			}
			// Defer flexible load only if the battery was not enough. The
			// forced portion cannot be re-deferred.
			if deficit > 0 && cfg.FlexibleRatio > 0 {
				deferrable := demand[h] * cfg.FlexibleRatio
				if deferrable > deficit {
					deferrable = deficit
				}
				deadline := h + window
				if deadline >= n {
					// Work whose window extends past the simulation horizon
					// runs at the final hour; at the final hour itself no
					// deferral is possible.
					deadline = n - 1
				}
				if deferrable > 0 && deadline > h {
					if s.deferred[deadline] == 0 { // zero marks an absent ledger entry; stored values are always positive
						s.pending++
					}
					s.deferred[deadline] += deferrable
					if deadline < s.head {
						s.head = deadline
					}
					load -= deferrable
					deficit -= deferrable
				}
			}
			if forced > 0 && deficit > 0 {
				counted := forced
				if counted > deficit {
					counted = deficit
				}
				res.ForcedDeadlineMWh += counted
			}
			s.gridDraw[h] = deficit
			s.surplus[h] = 0
		}

		surplusSum += s.surplus[h]
		s.balanced[h] = load
		if cfg.Battery != nil {
			s.soc[h] = cfg.Battery.SoC()
		}
		if load > res.PeakLoadMW {
			res.PeakLoadMW = load
		}
	}
	res.SurplusMWh = surplusSum
	// The ledger is provably drained here: every entry's deadline is below
	// n, and the forced-read at that hour zeroed it. (A panic mid-loop
	// leaves the flag set, so the next grow re-zeroes conservatively.)
	s.deferredDirty = false
	return res, nil
}

// pullDeferred removes up to amount MWh from the deferred ledger over
// deadlines [from, to], earliest first, and returns how much was pulled.
// from is the current hour, whose slot and every earlier one the forced
// reads have already cleared, so the scan may start at s.head when that lies
// further on: the live entries it visits, and their order, are the same.
//
//carbonlint:hotpath
func (s *Scratch) pullDeferred(from, to int, amount float64) float64 {
	pulled := 0.0
	d := max(from, s.head)
	for ; d <= to && amount > 0; d++ {
		e := s.deferred[d]
		if e == 0 { // zero marks an absent ledger entry; stored values are always positive
			continue
		}
		if e > amount {
			// A partial take leaves the entry live and exhausts amount.
			s.deferred[d] = e - amount
			s.head = d
			return pulled + amount
		}
		s.deferred[d] = 0
		s.pending--
		pulled += e
		amount -= e
	}
	s.head = d
	return pulled
}
