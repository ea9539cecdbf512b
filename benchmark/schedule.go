package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// Stream tags keep the schedule's random draws independent: changing how
// many think times a workload draws never shifts its arrivals or labels.
const (
	streamArrivals uint64 = iota + 1
	streamReturns
	streamAppends
	streamThink
	streamLabel
	streamQueries
	streamHistory
	streamRows
	streamPick
)

// mix is splitmix64 over the seed, a stream tag and two indices: a
// stateless, well-distributed hash, so any single draw (session 7's third
// think time, say) is a pure function of the seed without replaying a
// generator up to it.
func mix(seed int64, stream uint64, a, b int) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ stream<<56 ^ uint64(a)<<28 ^ uint64(b)
	for i := 0; i < 2; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		x = z ^ z>>31
	}
	return x
}

// unit maps a hash to a float in (0, 1).
func unit(h uint64) float64 { return (float64(h>>11) + 0.5) / (1 << 53) }

// rngFor returns a generator seeded from (seed, stream), for draws that are
// naturally sequential (Poisson gaps, permutations, table rows).
func rngFor(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(seed, stream, 0, 0) >> 1)))
}

// poisson returns the arrival offsets of a Poisson process of the given
// rate over [0, window), conditioned on its count: exactly rate × window
// arrivals (rounded), placed as sorted uniform draws. That keeps Poisson's
// burstiness while every seed offers the same load, so per-session costs
// and memory do not swing with the arrival count.
func poisson(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	n := int(math.Round(rate * window.Seconds()))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// arrival is one scheduled open-loop event: a new session, a returning
// user, or an append batch, at an offset from the window start.
type arrival struct {
	at    time.Duration
	kind  sessionKind
	index int // session index within its kind, or append batch index
}

type sessionKind int

const (
	kindNew sessionKind = iota
	kindReturning
	kindAppend
)

// schedule is when each session and append of one open-loop window
// arrives. With think and hashLabel it is everything the seed decides
// about the window: the server's answers decide which views get labelled,
// the seed decides the rest.
type schedule struct {
	events []arrival // sorted by offset
}

// newSchedule draws a window's arrivals for w. Returning users and the
// append writer are independent Poisson streams beside the new sessions.
func newSchedule(w *workload, seed int64, window time.Duration) *schedule {
	s := &schedule{}
	add := func(kind sessionKind, offs []time.Duration) {
		for i, at := range offs {
			s.events = append(s.events, arrival{at: at, kind: kind, index: i})
		}
	}
	add(kindNew, poisson(rngFor(seed, streamArrivals), w.rate, window))
	add(kindReturning, poisson(rngFor(seed, streamReturns), w.returnRate, window))
	add(kindAppend, poisson(rngFor(seed, streamAppends), w.appendRate, window))
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].at < s.events[j].at })
	return s
}

// count returns how many events of kind the window holds.
func (s *schedule) count(kind sessionKind) int {
	n := 0
	for _, e := range s.events {
		if e.kind == kind {
			n++
		}
	}
	return n
}

// think is user u's pause before label step: exponential with the
// workload's mean, or 0 when the mean is 0 (the saturation phase).
func think(seed int64, mean time.Duration, u userKey, step int) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(-math.Log(unit(mix(seed, streamThink, u.id(), step))) * float64(mean))
}

// hashLabel is the label a simulated user without a ground-truth utility
// gives view: a seeded draw in [0, 1] on a 0.01 grid, fixed per (user,
// view), so a view relabelled by the same user gets the same answer.
func hashLabel(seed int64, u userKey, view int) float64 {
	return math.Floor(unit(mix(seed, streamLabel, u.id(), view))*101) / 100
}

// userKey names one simulated user across phases and kinds, so every
// user's draws are distinct.
type userKey struct {
	kind  sessionKind
	phase int // one of the phase constants
	index int
}

func (u userKey) id() int { return (u.phase*4+int(u.kind))<<24 | u.index }
