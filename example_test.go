package viewseeker_test

import (
	"fmt"
	"strings"

	"viewseeker"
)

// ExampleQuery shows the embedded SQL engine answering an analytic query
// against a CSV-loaded table.
func ExampleQuery() {
	csv := `city,amount
paris,10
paris,30
tokyo,5
tokyo,7
tokyo,9`
	table, err := viewseeker.ReadCSV("orders", strings.NewReader(csv))
	if err != nil {
		panic(err)
	}
	res, err := viewseeker.Query(table, "SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM orders GROUP BY city ORDER BY city")
	if err != nil {
		panic(err)
	}
	for i := 0; i < res.NumRows(); i++ {
		row := res.Row(i)
		fmt.Printf("%s n=%s total=%s\n", row[0], row[1], row[2])
	}
	// Output:
	// paris n=2 total=40
	// tokyo n=3 total=21
}

// ExampleNew walks the minimal interactive loop: create a session over a
// table and a query, label a view, read the recommendation.
func ExampleNew() {
	csv := `kind,size,weight
a,1,10
a,2,11
a,3,12
b,4,90
b,5,91
b,6,92`
	table, err := viewseeker.ReadCSV("items", strings.NewReader(csv))
	if err != nil {
		panic(err)
	}
	if err := viewseeker.AssignRoles(table, []string{"kind"}, []string{"size", "weight"}); err != nil {
		panic(err)
	}
	s, err := viewseeker.New(table, "SELECT * FROM items WHERE kind = 'b'", viewseeker.Options{K: 1})
	if err != nil {
		panic(err)
	}
	// The "user" loves the weight views and shrugs at the size views.
	for i := 0; i < 4; i++ {
		v, _, err := s.Next()
		if err != nil {
			panic(err)
		}
		label := 0.1
		if v.Spec.Measure == "weight" {
			label = 0.9
		}
		if err := s.Feedback(v.Index, label); err != nil {
			panic(err)
		}
	}
	fmt.Printf("%d candidate views, %d labelled\n", s.NumViews(), s.NumLabels())
	fmt.Printf("top view: %s\n", s.TopK()[0].Spec)
	// Output:
	// 10 candidate views, 4 labelled
	// top view: MIN(weight) BY kind
}

// ExampleSeeker_SQL exports a recommended view back to SQL.
func ExampleSeeker_SQL() {
	csv := `kind,v
x,1
y,2`
	table, _ := viewseeker.ReadCSV("t", strings.NewReader(csv))
	_ = viewseeker.AssignRoles(table, []string{"kind"}, []string{"v"})
	s, err := viewseeker.New(table, "SELECT * FROM t WHERE kind = 'x'", viewseeker.Options{})
	if err != nil {
		panic(err)
	}
	for i, spec := range s.Specs() {
		if spec.Agg != "SUM" {
			continue
		}
		query, err := s.SQL(i)
		if err != nil {
			panic(err)
		}
		fmt.Println(query)
	}
	// Output:
	// SELECT kind, SUM(v) AS val FROM t GROUP BY kind ORDER BY kind
}
