package core

import (
	"fmt"
	"time"

	"viewseeker/internal/active"
)

// refineBudget is the per-iteration latency budget tl granted to the
// incremental feature refiner (Table 1: 1 s). It only matters when the
// Seeker is built from a partial matrix.
const refineBudget = time.Second

// refineCap bounds how many rough rows one iteration may refresh, on top
// of the time budget. The paper's saving comes from *pruning*: low-ranked
// views never get their exact features computed, so the cap must be small
// relative to the view space. It is deliberately not scaled with K: it
// models how much exact recomputation hides inside one user think-pause,
// which depends on the machine and the data, not on how many views the
// user asked to see.
const refineCap = 24

// Config parameterises a Seeker session. The zero value is usable; each
// field documents its default.
type Config struct {
	// K is the recommendation size (default 10).
	K int
	// Strategy is the main-phase query strategy (default
	// &active.Uncertainty{}).
	Strategy active.Strategy
	// ColdStartSeed seeds the cold-start random fallback.
	ColdStartSeed int64
	// Workers bounds how many rough rows the refiner refreshes
	// concurrently per iteration: more workers hide more exact
	// recomputation inside the same per-iteration latency budget. ≤ 0
	// selects runtime.NumCPU(); 1 forces sequential refinement (required
	// when custom utility features are not safe for concurrent use).
	Workers int
	// RefineHook, when non-nil, is called once per feature row the
	// incremental refiner refreshes, with the view index. It exists so
	// cancellation tests and instrumentation can observe refinement
	// progress; it runs on the refresh worker goroutines and must be safe
	// for concurrent use when Workers != 1.
	RefineHook func(viewIdx int)
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 10
	}
	if c.Strategy == nil {
		c.Strategy = &active.Uncertainty{}
	}
	return c
}

func (c Config) validate() error {
	if c.K < 0 {
		return fmt.Errorf("core: negative K")
	}
	return nil
}
