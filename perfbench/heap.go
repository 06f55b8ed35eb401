package main

import (
	"runtime/metrics"
	"time"
)

// heapObjectsMetric is the heap memory occupied by objects, live or not
// yet swept: the heap in use as the program sees it.
const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

// heapPeak samples the heap in use every few milliseconds until stopped
// and keeps the largest value seen.
type heapPeak struct {
	stop chan struct{}
	done chan uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: heapObjectsMetric}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	return float64(<-h.done) / (1 << 20)
}
