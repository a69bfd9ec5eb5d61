package sweep_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"carbonexplorer/internal/carbon"
	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/grid"
	"carbonexplorer/internal/sweep"
	"carbonexplorer/internal/timeseries"
)

// ExamplePlanShards shows the deterministic partition every shard-aware
// sweep uses: contiguous, balanced slices computed purely from the design
// count, so independent workers agree with no coordination.
func ExamplePlanShards() {
	plans, err := sweep.PlanShards(10, 3)
	if err != nil {
		panic(err)
	}
	for _, p := range plans {
		fmt.Printf("shard %s: designs [%d,%d)\n", p.Shard, p.Start, p.End)
	}
	// Output:
	// shard 1/3: designs [0,4)
	// shard 2/3: designs [4,7)
	// shard 3/3: designs [7,10)
}

// ExampleMergeCheckpoints runs two shards of a 100-design sweep to
// completion, then folds their checkpoints into one unsharded checkpoint
// that Run with Checkpoint.Resume set accepts directly.
func ExampleMergeCheckpoints() {
	dir, err := os.MkdirTemp("", "sweep-merge-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	// Ten days of synthetic demand, renewable shapes, and grid carbon
	// intensity for the bundled UT region.
	const hours = 240
	demand := timeseries.Generate(hours, func(h int) float64 {
		return 10 + 2*math.Sin(float64(h%24)/24*2*math.Pi)
	})
	wind := timeseries.Generate(hours, func(h int) float64 { return 5 + 4*math.Sin(float64(h)/17) })
	solar := timeseries.Generate(hours, func(h int) float64 {
		return math.Max(0, 8*math.Sin((float64(h%24)-6)/12*math.Pi))
	})
	ci := timeseries.Constant(hours, 400)
	in, err := explorer.NewInputsFromSeries(grid.MustSite("UT"), demand, wind, solar, ci, carbon.DefaultEmbodiedParams())
	if err != nil {
		panic(err)
	}
	avg := in.AvgDemandMW()
	space := explorer.Space{ // 5 x 5 x 2 x 2 = 100 designs
		WindMW:             []float64{0, avg, 2 * avg, 4 * avg, 8 * avg},
		SolarMW:            []float64{0, avg, 2 * avg, 4 * avg, 8 * avg},
		BatteryHours:       []float64{0, 2},
		ExtraCapacityFracs: []float64{0, 0.25},
		DoD:                1.0,
		FlexibleRatio:      0.4,
	}

	// Each worker sweeps its own half and writes its own checkpoint. On a
	// real deployment these two runs happen on separate machines.
	var checkpoints []string
	for i := 1; i <= 2; i++ {
		ckpt := filepath.Join(dir, fmt.Sprintf("shard%d.json", i))
		if _, err := sweep.Run(context.Background(), in, space, explorer.RenewablesBatteryCAS, sweep.Options{
			Checkpoint: sweep.CheckpointOptions{Path: ckpt},
			Plan:       sweep.Plan{Shard: sweep.Shard{Index: i, Count: 2}},
		}); err != nil {
			panic(err)
		}
		checkpoints = append(checkpoints, ckpt)
	}

	rep, err := sweep.MergeCheckpoints(filepath.Join(dir, "merged.json"), checkpoints...)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d shards merged: %d/%d designs done\n", len(rep.Inputs), rep.Done, rep.Total)
	fmt.Printf("complete: %v\n", rep.Complete())
	// Output:
	// 2 shards merged: 100/100 designs done
	// complete: true
}
