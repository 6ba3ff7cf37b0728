package main

import "time"

// openLoop fires operation i at its due time start+dues[i], whether or
// not earlier operations have finished, from one goroutine. While
// nothing is due it calls idle with the next due time; idle may do
// other work (polling) but should return by then, and sleeps when it
// has nothing to do. An operation that fire holds up delays the ones
// after it: openLoop returns each one's send time, so the caller times
// every operation from when it was due and can report how late the
// generator ran.
func openLoop(start time.Time, dues []time.Duration, fire func(i int), idle func(until time.Time)) []time.Time {
	sent := make([]time.Time, len(dues))
	for i := 0; i < len(dues); {
		due := start.Add(dues[i])
		if time.Now().Before(due) {
			idle(due)
			continue
		}
		sent[i] = time.Now()
		fire(i)
		i++
	}
	return sent
}

// sleepUntil sleeps until t (no-op when t has passed).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
