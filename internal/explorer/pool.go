package explorer

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrSkipped marks a design that EvaluateAll never evaluated because ctx was
// cancelled first. Searches count such designs as skipped; sweeps leave them
// pending for a resume.
var ErrSkipped = errors.New("explorer: design skipped by cancellation")

// EvaluateAll is the evaluation pool every search and sweep runs on. It
// evaluates designs on the caller's per-worker evaluators and writes design
// i's outcome to out[i] and its error to errs[i]: nil, the evaluation's error
// (a *PanicError if it panicked), or ErrSkipped. out and errs must be at least
// len(designs) long, and evs must hold at least one evaluator of in.
//
// Designs are handed out in order, so each evaluator's memoized supply stays
// warm; a single evaluator runs them inline. ctx is checked before each
// design. Each twin class in the slice (Twins) is simulated once: its
// representative runs first, and each twin then takes the representative's
// outcome under its own Design, so EvalHook does not run for it. A twin of a
// failed representative is evaluated on its own, since failures are per
// design; a twin of a skipped representative is skipped.
func (in *Inputs) EvaluateAll(ctx context.Context, evs []*Evaluator, designs []Design, out []Outcome, errs []error) {
	twins := in.Twins(designs)
	reps := make([]int, 0, len(designs))
	for i := range designs {
		if twins == nil || twins[i] == i {
			reps = append(reps, i)
		}
	}
	evaluateOn(ctx, evs, designs, reps, out, errs)
	var orphans []int
	for i, r := range twins {
		switch {
		case r == i:
		case errors.Is(errs[r], ErrSkipped):
			out[i], errs[i] = Outcome{}, ErrSkipped
		case errs[r] != nil:
			orphans = append(orphans, i)
		default:
			out[i], errs[i] = out[r], nil
			out[i].Design = designs[i]
		}
	}
	evaluateOn(ctx, evs, designs, orphans, out, errs)
}

// evaluateOn evaluates designs[i] for each i of idxs, handing the indices
// out in order across evs.
func evaluateOn(ctx context.Context, evs []*Evaluator, designs []Design, idxs []int, out []Outcome, errs []error) {
	one := func(ev *Evaluator, i int) {
		if ctx.Err() != nil {
			out[i], errs[i] = Outcome{}, ErrSkipped
			return
		}
		out[i], errs[i] = ev.EvaluateSafe(designs[i])
	}
	workers := min(len(evs), len(idxs))
	if workers <= 1 {
		// One worker (or one design): the goroutine round-trips would only
		// add overhead.
		for _, i := range idxs {
			one(evs[0], i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, ev := range evs[:workers] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := next.Add(1) - 1; k < int64(len(idxs)); k = next.Add(1) - 1 {
				one(ev, idxs[k])
			}
		}()
	}
	wg.Wait()
}
