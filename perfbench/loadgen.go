package main

import (
	"sync"
	"time"
)

// clock is the time source of the load generator; tests substitute a
// fake one.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

var realClock = clock{now: time.Now, sleep: time.Sleep}

// dueTimes is the open-loop schedule: request i is due i/rate seconds
// after start.
func dueTimes(start time.Time, rate float64, n int) []time.Time {
	out := make([]time.Time, n)
	for i := range out {
		out[i] = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	return out
}

// openLoop sends len(due) requests on their schedule, whatever the state
// of earlier ones: a dispatcher releases request i at due[i] to the first
// free one of conns workers, which calls send(i). Requests wait in a queue
// when every worker is busy, and send times them from due[i], so the wait
// counts. It returns, per request, how late the dispatcher released it
// (the generator's own lag, in ms), after every send has returned.
func openLoop(c clock, due []time.Time, conns int, send func(i int)) []float64 {
	lags := make([]float64, len(due))
	queue := make(chan int, len(due)) // sized to the schedule: the dispatcher never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				send(i)
			}
		}()
	}
	for i, d := range due {
		if wait := d.Sub(c.now()); wait > 0 {
			c.sleep(wait)
		}
		lags[i] = float64(c.now().Sub(d).Nanoseconds()) / 1e6
		queue <- i
	}
	close(queue)
	wg.Wait()
	return lags
}

// ladderSearch returns the highest rung of an ascending ladder at which
// ok holds, by binary search (ok is taken to hold on a prefix of the
// ladder), and the rungs it probed in order. It returns -1 when ok fails
// on the lowest rung.
func ladderSearch(ladder []float64, ok func(rate float64) bool) (int, []int) {
	lo, hi := -1, len(ladder) // ok(lo) holds (or lo = -1); ok(hi) fails (or hi = len)
	var probed []int
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		probed = append(probed, mid)
		if ok(ladder[mid]) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probed
}

// geometricLadder returns n rates from base, each step times the last.
func geometricLadder(base, step float64, n int) []float64 {
	out := make([]float64, n)
	r := base
	for i := range out {
		out[i] = r
		r *= step
	}
	return out
}
