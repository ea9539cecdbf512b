package viewseeker_test

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"viewseeker"
	"viewseeker/internal/dataset"
)

// TestEndToEndWorkflow spans the whole product surface in one realistic
// journey: generate data, persist it as CSV + schema sidecar, reload it,
// explore it with SQL (including EXPLAIN), run an interactive session to
// convergence against a scripted taste, consult explanations and exported
// SQL for the winners, save the session, and resume it in a fresh
// process-equivalent session.
func TestEndToEndWorkflow(t *testing.T) {
	dir := t.TempDir()

	// 1. Generate and persist.
	original := dataset.GenerateDIAB(dataset.DIABConfig{Rows: 5000, Seed: 99})
	csvPath := filepath.Join(dir, "patients.csv")
	if err := viewseeker.SaveCSVWithSchema(original, csvPath); err != nil {
		t.Fatal(err)
	}

	// 2. Reload: roles must survive.
	table, err := viewseeker.LoadCSV(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Schema.Dimensions()) != 7 || len(table.Schema.Measures()) != 8 {
		t.Fatalf("roles lost: %v / %v", table.Schema.Dimensions(), table.Schema.Measures())
	}

	// 3. Ad-hoc SQL over the reloaded table.
	res, err := viewseeker.Query(table, "SELECT COUNT(*) AS n FROM diab WHERE diag_group = 'diabetes'")
	if err != nil {
		t.Fatal(err)
	}
	dqRows := res.Column("n").Ints[0]
	if dqRows == 0 {
		t.Fatal("no diabetic rows")
	}
	plan, err := viewseeker.Query(table, "EXPLAIN SELECT diag_group, COUNT(*) FROM diab GROUP BY diag_group")
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumRows() != 1 {
		t.Fatalf("plan rows = %d, want one JSON document", plan.NumRows())
	}
	var planDoc map[string]any
	if err := json.Unmarshal([]byte(plan.Column("plan").Strs[0]), &planDoc); err != nil {
		t.Fatalf("EXPLAIN output is not JSON: %v", err)
	}
	if !strings.Contains(plan.Column("plan").Strs[0], `"op": "aggregate"`) {
		t.Fatal("plan missing aggregate operator")
	}

	// 4. Interactive session against a scripted taste (max per-bin
	// deviation), to convergence of its own top-3.
	const query = "SELECT * FROM diab WHERE diag_group = 'diabetes'"
	s, err := viewseeker.New(table, query, viewseeker.Options{K: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if int64(s.Target().NumRows()) != dqRows {
		t.Fatalf("session DQ = %d rows, SQL says %d", s.Target().NumRows(), dqRows)
	}
	taste := func(idx int) float64 {
		p, err := s.Pair(idx)
		if err != nil {
			t.Fatal(err)
		}
		td, rd := p.Target.Distribution(), p.Reference.Distribution()
		m := 0.0
		for i := range td {
			d := td[i] - rd[i]
			if d < 0 {
				d = -d
			}
			if d > m {
				m = d
			}
		}
		return m
	}
	for i := 0; i < 12; i++ {
		v, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if err := s.Feedback(v.Index, taste(v.Index)); err != nil {
			t.Fatal(err)
		}
	}
	top := s.TopK()
	if len(top) != 3 {
		t.Fatalf("topk = %d", len(top))
	}
	// The recommendation must actually be high-deviation.
	if taste(top[0].Index) < 0.5 {
		t.Errorf("top view deviation = %.2f, expected a strong deviation view", taste(top[0].Index))
	}

	// 5. Explanations and exported SQL for the winner.
	why, err := s.Explain(top[0].Index, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(why, "- ") {
		t.Errorf("explanation = %q", why)
	}
	winnerSQL, err := s.SQL(top[0].Index)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := viewseeker.Query(table, winnerSQL); err != nil {
		t.Fatalf("winner SQL does not run: %v", err)
	}

	// 6. Save, resume, verify identical recommendation.
	var saved bytes.Buffer
	if err := s.Save(&saved); err != nil {
		t.Fatal(err)
	}
	resumed, err := viewseeker.New(table, query, viewseeker.Options{K: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Load(&saved); err != nil {
		t.Fatal(err)
	}
	rTop := resumed.TopK()
	for i := range top {
		if top[i].Index != rTop[i].Index {
			t.Fatalf("resumed recommendation differs at rank %d", i)
		}
	}

}
