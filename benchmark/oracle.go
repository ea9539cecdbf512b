package main

import (
	"encoding/json"
	"fmt"

	"viewseeker"
)

// replay rebuilds session s in-process through viewseeker.New — same
// table, query, options, seed and labels (a returning user's journalled
// history first) — and requires the server's final GET top to match it on
// view indices and scores (compared as their JSON encodings) and on spec
// strings.
func replay(in *inputs, k int, s *sessionRun) error {
	sk, err := viewseeker.New(in.table, s.query, viewseeker.Options{K: k, Alpha: s.alpha, Seed: s.seed})
	if err != nil {
		return fmt.Errorf("oracle session for %q: %w", s.query, err)
	}
	for _, lb := range append(append([]label(nil), s.history...), s.labels...) {
		if err := sk.Feedback(lb.View, lb.Label); err != nil {
			return fmt.Errorf("oracle feedback: %w", err)
		}
	}
	want := sk.TopK()
	got := s.top.Top
	if len(want) != len(got) {
		return fmt.Errorf("session %s: server top has %d views, in-process replay %d", s.id, len(got), len(want))
	}
	for i := range want {
		ws, _ := json.Marshal(want[i].Score)
		gs, _ := json.Marshal(got[i].Score)
		if want[i].Index != got[i].Index || string(ws) != string(gs) || want[i].Spec.String() != got[i].Spec {
			return fmt.Errorf("session %s: top[%d] = view %d %s score %s on the server, view %d %s score %s in-process",
				s.id, i, got[i].Index, got[i].Spec, gs, want[i].Index, want[i].Spec, ws)
		}
	}
	return nil
}

// checkSpecs requires every view the server put in a top-k to carry the
// spec string the harness's own enumeration has at that index: the
// harness's labels and ideal utilities are indexed in that order.
func checkSpecs(in *inputs, ss []*sessionRun) error {
	for _, s := range ss {
		if !s.ok() {
			continue
		}
		for _, v := range s.top.Top {
			if v.Index < 0 || v.Index >= len(in.specs) || in.specs[v.Index] != v.Spec {
				return fmt.Errorf("session %s: server view %d is %q, the harness enumerates %q there",
					s.id, v.Index, v.Spec, specAt(in.specs, v.Index))
			}
		}
	}
	return nil
}

func specAt(specs []string, i int) string {
	if i < 0 || i >= len(specs) {
		return "nothing"
	}
	return specs[i]
}
