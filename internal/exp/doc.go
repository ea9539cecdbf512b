// Package exp reproduces the paper's evaluation: it assembles the DIAB
// and SYN testbeds (Table 1), the simulated ideal utility functions
// (Table 2), and one driver per figure — user effort to 100% precision
// (Figures 3–4, LabelsToFullPrecision), the single-feature baseline
// comparison (Figure 5, BaselineComparison) and the optimisation study
// (Figures 6–7, OptimizationStudy). Each driver returns plain result
// structs; report.go renders them as the text tables the cmd/experiments
// tool prints.
//
// Every session is a public viewseeker.Seeker, so the studies measure
// the offline phase and session loop users and the server run. Label
// counts come from sessions sharing one exact offline version per
// testbed; the timed study opens each session cold (Testbed.ColdRun).
//
// # Contracts
//
// Reproducibility: every driver is deterministic end to end — seeded
// testbed generation, seeded simulated users, deterministic selection —
// so two runs of the same experiment produce identical tables, and worker
// counts change wall time, never results. TestFiguresGolden pins Table 1,
// Figures 3–5 and the unoptimised Figure 6/7 labels at paper scale.
package exp
