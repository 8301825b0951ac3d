package main

import (
	"math"
	"testing"
	"time"

	"p2prank/internal/dprcore"
)

func TestLiveFault(t *testing.T) {
	const ms = float64(time.Millisecond)
	for _, tc := range []struct {
		name string
		in   dprcore.FaultConfig
		want dprcore.FaultConfig
	}{
		{
			name: "small times are bridged to milliseconds",
			in: dprcore.FaultConfig{DelayProb: 0.5, MeanDelay: 3, PartitionFrac: 0.3, PartitionFrom: 2, PartitionTo: 9,
				StraggleFrac: 0.25, StraggleFactor: 4},
			want: dprcore.FaultConfig{DelayProb: 0.5, MeanDelay: 3 * ms, PartitionFrac: 0.3, PartitionFrom: 2 * ms,
				PartitionTo: 9 * ms, StraggleFrac: 0.25, StraggleFactor: 4 * ms},
		},
		{
			name: "a partition that never heals keeps its window",
			in:   dprcore.FaultConfig{PartitionFrac: 0.3, PartitionFrom: 5, PartitionTo: math.MaxFloat64},
			want: dprcore.FaultConfig{PartitionFrac: 0.3, PartitionFrom: 5, PartitionTo: math.MaxFloat64},
		},
		{
			name: "times already in nanoseconds are kept",
			in:   dprcore.FaultConfig{DelayProb: 0.5, MeanDelay: 2 * ms},
			want: dprcore.FaultConfig{DelayProb: 0.5, MeanDelay: 2 * ms},
		},
		{
			name: "the lattice seed is kept for Deploy to default",
			in:   dprcore.FaultConfig{StraggleFrac: 0.25, StraggleFactor: 5 * ms, Seed: 42},
			want: dprcore.FaultConfig{StraggleFrac: 0.25, StraggleFactor: 5 * ms, Seed: 42},
		},
	} {
		if got := liveFault(tc.in); got != tc.want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}
