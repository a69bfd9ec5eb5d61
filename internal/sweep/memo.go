package sweep

import (
	"sync"

	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/timeseries"
)

// yearMemo is the per-run table of simulated years: it maps a design's twin
// key (explorer.Inputs.TwinKey) to the outcome its Job representative
// simulated, without the SoC trace. One memo hangs on every Job of a run —
// all leases of a coordinated job, all rounds of an adaptive sweep — so a
// twin whose representative another lease or an earlier round simulated is
// filled from the table instead of simulated again (DESIGN.md, "Twin
// designs"). It holds one entry per distinct simulated year and serves only
// runs under the Inputs it was built for. Safe for concurrent use.
type yearMemo struct {
	in  *explorer.Inputs
	key func(explorer.Design) explorer.Design

	mu    sync.Mutex
	years map[explorer.Design]explorer.Outcome
}

// newYearMemo returns an empty memo for runs under in, or nil when both of
// in's shapes generate and every design simulates its own year.
func newYearMemo(in *explorer.Inputs) *yearMemo {
	key := in.TwinKey()
	if key == nil {
		return nil
	}
	return &yearMemo{in: in, key: key, years: make(map[explorer.Design]explorer.Outcome)}
}

// serves returns m if it may serve a run under in, else nil.
func (m *yearMemo) serves(in *explorer.Inputs) *yearMemo {
	if m == nil || m.in != in {
		return nil
	}
	return m
}

// get returns the outcome of d's year under d's own Design, if the memo
// holds it.
func (m *yearMemo) get(d explorer.Design) (explorer.Outcome, bool) {
	k := m.key(d)
	m.mu.Lock()
	o, ok := m.years[k]
	m.mu.Unlock()
	o.Design = d
	return o, ok
}

// put records a representative's successful outcome for its year.
func (m *yearMemo) put(o explorer.Outcome) {
	o.BatterySoC = timeseries.Series{}
	k := m.key(o.Design)
	m.mu.Lock()
	m.years[k] = o
	m.mu.Unlock()
}
