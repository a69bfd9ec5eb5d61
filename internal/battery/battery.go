package battery

import (
	"fmt"
	"math"
)

// Params configures one battery installation.
type Params struct {
	// CapacityMWh is the nameplate energy capacity.
	CapacityMWh float64
	// ChargeEfficiency is the fraction of offered energy stored (0, 1].
	ChargeEfficiency float64
	// DischargeEfficiency is the fraction of stored energy delivered (0, 1].
	DischargeEfficiency float64
	// MaxChargeC and MaxDischargeC are C-rate limits: maximum power as a
	// multiple of capacity (1.0 = full charge or discharge in one hour,
	// the paper's assumption given hourly data).
	MaxChargeC    float64
	MaxDischargeC float64
	// DepthOfDischarge in (0, 1] caps usable capacity: the energy content
	// never drops below (1−DoD)·Capacity. The paper studies 100% and 80%.
	DepthOfDischarge float64
	// InitialSoC is the starting state of charge in [0, 1] of usable range.
	InitialSoC float64
	// SelfDischargePerDay is the fraction of stored energy (above the DoD
	// floor) lost per idle day. Lithium chemistries sit near 0.1%/day;
	// zero disables the effect. Callers advance it via Idle.
	SelfDischargePerDay float64
}

// LFP returns the paper's Lithium Iron Phosphate configuration at the given
// capacity and depth of discharge: ~95% round-trip efficiency split evenly
// between charge and discharge, and 1C power limits to match hourly data.
func LFP(capacityMWh, dod float64) Params {
	return Params{
		CapacityMWh:         capacityMWh,
		ChargeEfficiency:    0.975,
		DischargeEfficiency: 0.975,
		MaxChargeC:          1.0,
		MaxDischargeC:       1.0,
		DepthOfDischarge:    dod,
		InitialSoC:          1.0,
	}
}

// Validate reports the first invalid parameter, or nil.
func (p Params) Validate() error {
	switch {
	case p.CapacityMWh < 0:
		return fmt.Errorf("battery: negative capacity")
	case p.ChargeEfficiency <= 0 || p.ChargeEfficiency > 1:
		return fmt.Errorf("battery: charge efficiency %v out of (0, 1]", p.ChargeEfficiency)
	case p.DischargeEfficiency <= 0 || p.DischargeEfficiency > 1:
		return fmt.Errorf("battery: discharge efficiency %v out of (0, 1]", p.DischargeEfficiency)
	case p.MaxChargeC <= 0 || p.MaxDischargeC <= 0:
		return fmt.Errorf("battery: C-rate limits must be positive")
	case p.DepthOfDischarge <= 0 || p.DepthOfDischarge > 1:
		return fmt.Errorf("battery: depth of discharge %v out of (0, 1]", p.DepthOfDischarge)
	case p.InitialSoC < 0 || p.InitialSoC > 1:
		return fmt.Errorf("battery: initial SoC %v out of [0, 1]", p.InitialSoC)
	case p.SelfDischargePerDay < 0 || p.SelfDischargePerDay > 1:
		return fmt.Errorf("battery: self-discharge %v out of [0, 1]", p.SelfDischargePerDay)
	}
	return nil
}

// Battery is a stateful storage simulator.
type Battery struct {
	p Params
	// energy is the current content in MWh, within [floor, capacity].
	energy float64
	// floor is the DoD-imposed minimum content.
	floor float64
	// dischargedTotal accumulates energy delivered, for cycle counting.
	dischargedTotal float64
}

// New builds a battery from params.
func New(p Params) (*Battery, error) {
	b := new(Battery)
	if err := b.Init(p); err != nil {
		return nil, err
	}
	return b, nil
}

// Init reconfigures b in place from params, restoring the initial state of
// charge and clearing cycle accounting. It lets hot paths reuse one Battery
// value across many simulated designs instead of allocating per design; the
// resulting state is identical to a freshly built New(p).
func (b *Battery) Init(p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	floor := (1 - p.DepthOfDischarge) * p.CapacityMWh
	usable := p.CapacityMWh - floor
	*b = Battery{
		p:      p,
		floor:  floor,
		energy: floor + p.InitialSoC*usable,
	}
	return nil
}

// Capacity returns the nameplate capacity in MWh.
func (b *Battery) Capacity() float64 { return b.p.CapacityMWh }

// UsableCapacity returns the DoD-limited usable capacity in MWh.
func (b *Battery) UsableCapacity() float64 { return b.p.CapacityMWh - b.floor }

// Energy returns the current content in MWh.
func (b *Battery) Energy() float64 { return b.energy }

// SoC returns the state of charge as a fraction of usable capacity in
// [0, 1]. A zero-capacity battery reports 0.
func (b *Battery) SoC() float64 {
	usable := b.UsableCapacity()
	if usable <= 0 {
		return 0
	}
	return (b.energy - b.floor) / usable
}

// Charge offers surplus power (MW) for the given duration (hours) and
// returns the power actually drawn from the source. Acceptance is limited by
// the C-rate and by remaining headroom; stored energy is reduced by the
// charge efficiency.
func (b *Battery) Charge(offeredMW, hours float64) (acceptedMW float64) {
	if offeredMW <= 0 || hours <= 0 || b.p.CapacityMWh == 0 {
		return 0
	}
	limit := b.p.MaxChargeC * b.p.CapacityMWh
	// The builtin min has math.Min's NaN, ±0 and ±Inf rules (Go spec), so
	// results are the same bits, but it compiles inline where math.Min is
	// a call into assembly on amd64, once per simulated hour.
	power := min(offeredMW, limit)
	// Headroom limits the energy that can be stored this step.
	headroom := b.p.CapacityMWh - b.energy
	maxAcceptable := headroom / b.p.ChargeEfficiency / hours
	power = min(power, maxAcceptable)
	if power <= 0 {
		return 0
	}
	b.energy += power * hours * b.p.ChargeEfficiency
	if b.energy > b.p.CapacityMWh {
		b.energy = b.p.CapacityMWh // guard against float drift
	}
	return power
}

// Discharge requests power (MW) for the given duration (hours) and returns
// the power actually delivered, limited by the C-rate and the DoD floor.
// Delivered energy drains the store at 1/efficiency.
func (b *Battery) Discharge(requestedMW, hours float64) (deliveredMW float64) {
	if requestedMW <= 0 || hours <= 0 || b.p.CapacityMWh == 0 {
		return 0
	}
	limit := b.p.MaxDischargeC * b.p.CapacityMWh
	power := min(requestedMW, limit)
	available := (b.energy - b.floor) * b.p.DischargeEfficiency / hours
	power = min(power, available)
	if power <= 0 {
		return 0
	}
	b.energy -= power * hours / b.p.DischargeEfficiency
	if b.energy < b.floor {
		b.energy = b.floor // guard against float drift
	}
	b.dischargedTotal += power * hours
	return power
}

// EquivalentFullCycles returns total delivered energy divided by usable
// capacity: the cycle count used for lifetime estimation. Zero-capacity
// batteries report 0.
func (b *Battery) EquivalentFullCycles() float64 {
	usable := b.UsableCapacity()
	if usable <= 0 {
		return 0
	}
	return b.dischargedTotal / usable
}

// Idle advances the battery through hours of inactivity, applying
// self-discharge to the energy stored above the DoD floor. It is a no-op
// when self-discharge is disabled.
func (b *Battery) Idle(hours float64) {
	if b.p.SelfDischargePerDay <= 0 || hours <= 0 {
		return
	}
	keep := 1 - b.p.SelfDischargePerDay
	factor := math.Pow(keep, hours/24)
	b.energy = b.floor + (b.energy-b.floor)*factor
}

// Reset restores the initial state of charge and clears cycle accounting.
func (b *Battery) Reset() {
	b.energy = b.floor + b.p.InitialSoC*b.UsableCapacity()
	b.dischargedTotal = 0
}
