package main

import (
	"math"
	"testing"
)

func TestCalibratorSpeed(t *testing.T) {
	k, err := newCalibrator(2, true)
	if err != nil {
		t.Fatal(err)
	}
	defer k.close()
	if got, want := k.megabytes(), 16+2*(4+0.25); math.Abs(got-want) > 0.01 {
		t.Errorf("footprint %.3f MB, want about %.2f", got, want)
	}
	k.follow(0)
	if len(k.sample) != 1 || k.sample[0] <= 0 {
		t.Fatalf("one run after an empty section: samples %v", k.sample)
	}
	// Runs that take twice the reference time mean half the speed, and
	// taking the speed starts a new series.
	k.sample = []float64{2 * calibrationRef / float64(k.scale), 2 * calibrationRef / float64(k.scale)}
	if got := k.take(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("speed %v, want 0.5", got)
	}
	if len(k.sample) != 0 {
		t.Errorf("%d samples left after take", len(k.sample))
	}
	k.run()
	one := k.sample[0]
	k.sample = k.sample[:0]
	if k.follow(10 * one); len(k.sample) < 2 {
		t.Errorf("a section ten runs long was followed by %d runs, want a fifth of its length", len(k.sample))
	}
}
