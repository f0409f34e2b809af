package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// jobStats holds one value per timed job: wall and CPU seconds and the
// memory the process held from the OS at its peak, in MiB.
type jobStats struct {
	wall, cpu, peakMiB []float64
}

// timedJobs runs job back to back until seconds have elapsed and at
// least minJobs have run. A job passes its timed part to measure, once;
// whatever it does around that call (booting, checking, tearing down)
// is not measured. Before the timed part the heap is collected and
// returned to the OS, so each job's peak is its own and not a leftover
// of the one before.
func timedJobs(seconds float64, minJobs int, job func(measure func(func() error) error) error) (jobStats, error) {
	var js jobStats
	measure := func(part func() error) error {
		debug.FreeOSMemory()
		m := startMemSampler()
		c0 := cpuSeconds()
		t0 := time.Now()
		err := part()
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - c0
		peak := m.stop()
		if err == nil {
			js.wall = append(js.wall, wall)
			js.cpu = append(js.cpu, cpu)
			js.peakMiB = append(js.peakMiB, mib(peak))
		}
		return err
	}
	start := time.Now()
	for n := 0; n < minJobs || time.Since(start).Seconds() < seconds; n++ {
		if err := job(measure); err != nil {
			return js, err
		}
		if len(js.wall) != n+1 {
			return js, fmt.Errorf("job %d measured %d parts, want 1", n, len(js.wall)-n)
		}
	}
	return js, nil
}

// repeatSetup runs setup n times and returns each run's wall seconds.
func repeatSetup(n int, setup func() error) ([]float64, error) {
	walls := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return walls, nil
}

// cpuSeconds returns the process's user + system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// memSampler polls the memory the Go runtime holds from the OS (mapped
// minus released) and keeps the high-water mark. The runtime exposes no
// peak of its own, so a short polling interval stands in for one.
type memSampler struct {
	stopc chan struct{}
	done  chan uint64
}

const memSampleEvery = 2 * time.Millisecond

func startMemSampler() *memSampler {
	m := &memSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		samples := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		held := func() uint64 {
			metrics.Read(samples)
			return samples[0].Value.Uint64() - samples[1].Value.Uint64()
		}
		peak := held()
		t := time.NewTicker(memSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				peak = max(peak, held())
			case <-m.stopc:
				m.done <- max(peak, held())
				return
			}
		}
	}()
	return m
}

// stop ends sampling and returns the peak in bytes.
func (m *memSampler) stop() uint64 {
	close(m.stopc)
	return <-m.done
}

// allocBytes returns the cumulative bytes the process has allocated on
// the heap; the difference across a phase is the phase's allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durations converts a duration sample to float64 in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
