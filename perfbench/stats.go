package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile for
// it to be reported: a percentile with fewer is no tail at all.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples and whether
// it may be reported. The median is always reported (given a sample);
// any higher percentile only when at least minBeyond samples rank
// above it.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	rank = max(1, min(n, rank))
	if q > 0.5 && n-rank < minBeyond {
		return s[rank-1], false
	}
	return s[rank-1], true
}

func median(samples []float64) float64 {
	v, _ := percentile(samples, 0.5)
	return v
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func heapLive() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// meter measures one window: wall time, process CPU time, heap bytes
// allocated, and the peak heap size, sampled every millisecond.
type meter struct {
	start  time.Time
	cpu0   time.Duration
	alloc0 uint64

	mu   sync.Mutex
	peak uint64 // guarded by mu
	stop chan struct{}
	done chan struct{}

	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

// startMeter collects garbage first, so every window starts from the
// same heap, then starts the heap sampler.
func startMeter() *meter {
	runtime.GC()
	m := &meter{stop: make(chan struct{}), done: make(chan struct{})}
	m.peak = heapLive()
	go func() {
		defer close(m.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				if v := heapLive(); v > 0 {
					m.mu.Lock()
					m.peak = max(m.peak, v)
					m.mu.Unlock()
				}
			}
		}
	}()
	m.alloc0 = heapAllocated()
	m.cpu0 = cpuTime()
	m.start = time.Now()
	return m
}

// finish stops the window and its sampler.
func (m *meter) finish() {
	m.wall = time.Since(m.start)
	m.cpu = cpuTime() - m.cpu0
	m.alloc = heapAllocated() - m.alloc0
	close(m.stop)
	<-m.done
}

func (m *meter) peakMiB() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return float64(m.peak) / (1 << 20)
}

// metricSet is the "metrics" object of the result line.
type metricSet map[string]metricValue

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (s metricSet) put(name string, v float64, unit string) {
	s[name] = metricValue{Value: v, Unit: unit}
}

// common adds the end-to-end metrics every workload reports from its
// window and its completed operations' latencies (milliseconds).
func (s metricSet) common(m *meter, ops int, lat []float64) {
	s.put("ops_s", float64(ops)/m.wall.Seconds(), "1/s")
	s.put("op_p50_ms", median(lat), "ms")
	s.put("cpu_ms_per_op", ms(m.cpu)/float64(ops), "ms")
	s.put("alloc_kb_per_op", float64(m.alloc)/1024/float64(ops), "KiB")
	s.put("heap_peak_mb", m.peakMiB(), "MiB")
}

// traced adds the traced run's own operation latencies: the median, and
// the 99th percentile when at least minBeyond samples lie beyond it.
func (s metricSet) traced(lat []float64) {
	s.put("traced.op_p50_ms", median(lat), "ms")
	if v, ok := percentile(lat, 0.99); ok {
		s.put("traced.op_p99_ms", v, "ms")
	}
}
