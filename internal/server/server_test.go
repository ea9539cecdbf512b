package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"viewseeker/internal/dataset"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	table := dataset.GenerateDIAB(dataset.DIABConfig{Rows: 2000, Seed: 51})
	ts := httptest.NewServer(New(table).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func doJSON(t *testing.T, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var rdr *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rdr = bytes.NewReader(b)
	} else {
		rdr = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != wantStatus {
		var msg map[string]any
		_ = json.NewDecoder(res.Body).Decode(&msg)
		t.Fatalf("%s %s = %d, want %d (%v)", method, url, res.StatusCode, wantStatus, msg)
	}
	if out != nil {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIndexPage(t *testing.T) {
	ts := testServer(t)
	res, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET / = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("content type = %s", ct)
	}
}

func TestTablesEndpoint(t *testing.T) {
	ts := testServer(t)
	var tables []tableInfo
	doJSON(t, "GET", ts.URL+"/api/tables", nil, http.StatusOK, &tables)
	if len(tables) != 1 || tables[0].Name != "diab" {
		t.Fatalf("tables = %+v", tables)
	}
	if len(tables[0].Dimensions) != 7 || len(tables[0].Measures) != 8 {
		t.Errorf("roles = %+v", tables[0])
	}
}

func TestFullSessionFlow(t *testing.T) {
	ts := testServer(t)

	var sess sessionInfo
	doJSON(t, "POST", ts.URL+"/api/sessions", createSessionRequest{
		Table: "diab",
		Query: "SELECT * FROM diab WHERE diag_group = 'diabetes'",
		K:     3,
	}, http.StatusCreated, &sess)
	if sess.NumViews != 280 || sess.TargetRows == 0 {
		t.Fatalf("session = %+v", sess)
	}
	base := ts.URL + "/api/sessions/" + sess.ID

	// Three feedback rounds.
	for i := 0; i < 3; i++ {
		var next viewJSON
		doJSON(t, "GET", base+"/next", nil, http.StatusOK, &next)
		if next.Spec == "" {
			t.Fatalf("next view = %+v", next)
		}
		// The SVG for the presented view renders.
		res, err := http.Get(fmt.Sprintf("%s/views/%d/svg", base, next.Index))
		if err != nil {
			t.Fatal(err)
		}
		svg := make([]byte, 1<<16)
		n, _ := res.Body.Read(svg)
		res.Body.Close()
		if res.StatusCode != http.StatusOK || !bytes.Contains(svg[:n], []byte("<svg")) {
			t.Fatalf("svg status=%d body=%q", res.StatusCode, svg[:min(n, 80)])
		}
		var top topResponse
		doJSON(t, "POST", base+"/feedback", feedbackRequest{Index: next.Index, Label: float64(i) / 3}, http.StatusOK, &top)
		if top.NumLabels != i+1 {
			t.Fatalf("labels = %d, want %d", top.NumLabels, i+1)
		}
		if len(top.Top) != 3 {
			t.Fatalf("top size = %d", len(top.Top))
		}
	}

	// Weights and top endpoints.
	var weights struct {
		Features []string           `json:"features"`
		Weights  map[string]float64 `json:"weights"`
	}
	doJSON(t, "GET", base+"/weights", nil, http.StatusOK, &weights)
	if len(weights.Features) != 8 || len(weights.Weights) != 8 {
		t.Errorf("weights = %+v", weights)
	}
	var top topResponse
	doJSON(t, "GET", base+"/top", nil, http.StatusOK, &top)
	if top.Top[0].SQL == "" {
		t.Error("top views should carry their SQL")
	}
	var info sessionInfo
	doJSON(t, "GET", base, nil, http.StatusOK, &info)
	if info.NumLabels != 3 {
		t.Errorf("info labels = %d", info.NumLabels)
	}

	// Delete, then the session is gone.
	doJSON(t, "DELETE", base, nil, http.StatusNoContent, nil)
	doJSON(t, "GET", base, nil, http.StatusNotFound, nil)
	doJSON(t, "DELETE", base, nil, http.StatusNotFound, nil)
}

func TestCreateSessionErrors(t *testing.T) {
	ts := testServer(t)
	doJSON(t, "POST", ts.URL+"/api/sessions", createSessionRequest{
		Table: "ghost", Query: "SELECT 1",
	}, http.StatusNotFound, nil)
	doJSON(t, "POST", ts.URL+"/api/sessions", createSessionRequest{
		Table: "diab", Query: "broken(",
	}, http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/api/sessions", createSessionRequest{
		Table: "diab", Query: "SELECT * FROM diab WHERE race = 'Martian'",
	}, http.StatusBadRequest, nil)
	// Corrupt JSON body.
	res, err := http.Post(ts.URL+"/api/sessions", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt body status = %d", res.StatusCode)
	}
}

func TestSessionEndpointErrors(t *testing.T) {
	ts := testServer(t)
	doJSON(t, "GET", ts.URL+"/api/sessions/nope/next", nil, http.StatusNotFound, nil)

	var sess sessionInfo
	doJSON(t, "POST", ts.URL+"/api/sessions", createSessionRequest{
		Table: "diab", Query: "SELECT * FROM diab WHERE diag_group = 'diabetes'", K: 2,
	}, http.StatusCreated, &sess)
	base := ts.URL + "/api/sessions/" + sess.ID
	doJSON(t, "POST", base+"/feedback", feedbackRequest{Index: -1, Label: 0.5}, http.StatusBadRequest, nil)
	doJSON(t, "POST", base+"/feedback", feedbackRequest{Index: 0, Label: 7}, http.StatusBadRequest, nil)
	res, err := http.Get(base + "/views/notanumber/svg")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("bad index status = %d", res.StatusCode)
	}
	res, err = http.Get(base + "/views/99999/svg")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("out-of-range index status = %d", res.StatusCode)
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts := testServer(t)
	var sess sessionInfo
	doJSON(t, "POST", ts.URL+"/api/sessions", createSessionRequest{
		Table: "diab", Query: "SELECT * FROM diab WHERE diag_group = 'diabetes'", K: 3,
	}, http.StatusCreated, &sess)
	var out struct {
		Explanation string `json:"explanation"`
	}
	doJSON(t, "GET", ts.URL+"/api/sessions/"+sess.ID+"/views/0/explain", nil, http.StatusOK, &out)
	if !strings.HasPrefix(out.Explanation, "- ") {
		t.Errorf("explanation = %q", out.Explanation)
	}
	doJSON(t, "GET", ts.URL+"/api/sessions/"+sess.ID+"/views/xx/explain", nil, http.StatusBadRequest, nil)
}

// New builds a server hosting the given tables with default Options.
func New(tables ...*dataset.Table) *Server {
	return NewWithOptions(Options{}, tables...)
}
