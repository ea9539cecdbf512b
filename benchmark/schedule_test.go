package main

import (
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	w := workloadNamed("budget_churn") // new users, returning users
	live := workloadNamed("live_append")
	const window = 10 * time.Second
	for _, wl := range []*workload{w, live} {
		a, b := newSchedule(wl, 7, window), newSchedule(wl, 7, window)
		if !reflect.DeepEqual(a.events, b.events) {
			t.Fatalf("%s: same seed, different arrivals", wl.name)
		}
		if c := newSchedule(wl, 8, window); reflect.DeepEqual(a.events, c.events) {
			t.Fatalf("%s: seeds 7 and 8 gave the same arrivals", wl.name)
		}
		for _, kind := range []sessionKind{kindNew, kindReturning, kindAppend} {
			rate := map[sessionKind]float64{kindNew: wl.rate, kindReturning: wl.returnRate, kindAppend: wl.appendRate}[kind]
			if got, want := a.count(kind), int(rate*window.Seconds()+0.5); got != want {
				t.Errorf("%s: %d arrivals of kind %d, want rate × window = %d", wl.name, got, kind, want)
			}
		}
		for i := 1; i < len(a.events); i++ {
			if a.events[i].at < a.events[i-1].at || a.events[i].at >= window {
				t.Fatalf("%s: arrivals out of order or outside the window at %d", wl.name, i)
			}
		}
	}

	u := userKey{kind: kindNew, phase: phaseWindow, index: 3}
	var thinks7, thinks8 []time.Duration
	var labels7, labels8 []float64
	for step := 0; step < 20; step++ {
		thinks7 = append(thinks7, think(7, w.think, u, step))
		thinks8 = append(thinks8, think(8, w.think, u, step))
		labels7 = append(labels7, hashLabel(7, u, step))
		labels8 = append(labels8, hashLabel(8, u, step))
		if think(7, w.think, u, step) != thinks7[step] || hashLabel(7, u, step) != labels7[step] {
			t.Fatal("same seed, different think time or label")
		}
		if l := labels7[step]; l < 0 || l > 1 {
			t.Fatalf("label %v outside [0, 1]", l)
		}
	}
	if reflect.DeepEqual(thinks7, thinks8) || reflect.DeepEqual(labels7, labels8) {
		t.Fatal("seeds 7 and 8 gave the same think times or labels")
	}
	if think(7, 0, u, 0) != 0 {
		t.Fatal("a zero mean must give no think time (saturation phase)")
	}
	other := userKey{kind: kindReturning, phase: phaseWindow, index: 3}
	if think(7, w.think, u, 0) == think(7, w.think, other, 0) {
		t.Fatal("distinct users drew the same think time")
	}
}
