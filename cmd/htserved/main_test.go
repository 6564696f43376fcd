package main

import (
	"testing"
	"time"
)

// TestScriptGrid pins how -rate and -duration size a script: 1ms ticks
// while the rate fills them, one arrival per 1/rate tick below 1000/s.
func TestScriptGrid(t *testing.T) {
	for _, c := range []struct {
		rate           float64
		duration       time.Duration
		tick           time.Duration
		ticks, perTick int
	}{
		{5000, 2 * time.Second, time.Millisecond, 2000, 5},
		{2000, time.Second, time.Millisecond, 1000, 2},
		{1000, time.Second, time.Millisecond, 1000, 1},
		{500, time.Second, 2 * time.Millisecond, 500, 1},
		{300, 3 * time.Second, 3333333, 900, 1},
		{200, time.Second, 5 * time.Millisecond, 200, 1},
		{50, 10 * time.Millisecond, 20 * time.Millisecond, 1, 1},
	} {
		tick, ticks, perTick := scriptGrid(c.rate, c.duration)
		if tick != c.tick || ticks != c.ticks || perTick != c.perTick {
			t.Errorf("scriptGrid(%v, %v) = %v, %d, %d; want %v, %d, %d",
				c.rate, c.duration, tick, ticks, perTick, c.tick, c.ticks, c.perTick)
		}
	}
}

// TestTicksOfRoundsUp: a deadline flag converts to whole ticks rounding
// up, so a positive deadline shorter than a tick stays a deadline.
func TestTicksOfRoundsUp(t *testing.T) {
	const ms = time.Millisecond
	for _, c := range []struct {
		d, tick time.Duration
		want    int
	}{
		{0, 5 * ms, 0},
		{-ms, 5 * ms, 0},
		{time.Nanosecond, 5 * ms, 1},
		{4 * ms, 5 * ms, 1},   // -scenario hotkey -rate 200 -loose 4ms
		{10 * ms, 20 * ms, 1}, // the default -tight below -rate 100
		{5 * ms, 5 * ms, 1},
		{11 * ms, 5 * ms, 3},
		{10 * ms, ms, 10},
		{100 * ms, 2500 * time.Microsecond, 40},
	} {
		if got := ticksOf(c.d, c.tick); got != c.want {
			t.Errorf("ticksOf(%v, %v) = %d, want %d", c.d, c.tick, got, c.want)
		}
	}
}
