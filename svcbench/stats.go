package main

import (
	"os"
	"runtime/metrics"
	"time"

	"ecosched/internal/stats"
)

func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	s := stats.Series{Values: xs}
	return s.Mean()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// fileSize returns the size of path in bytes, 0 when it does not exist.
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// runtimeStats reads the Go runtime's cumulative allocation, GC-cycle and
// CPU-class counters.
type runtimeStats struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	usedCPU    float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readRuntime() runtimeStats {
	metrics.Read(runtimeSamples)
	return runtimeStats{
		allocBytes: runtimeSamples[0].Value.Uint64(),
		gcCycles:   runtimeSamples[1].Value.Uint64(),
		gcCPU:      runtimeSamples[2].Value.Float64(),
		usedCPU:    runtimeSamples[3].Value.Float64() - runtimeSamples[4].Value.Float64(),
	}
}

// allocBytes reads only the cumulative allocation counter.
func allocBytes() uint64 {
	metrics.Read(runtimeSamples[:1])
	return runtimeSamples[0].Value.Uint64()
}
