package ingest

import (
	"strings"
	"testing"
)

const productsCSV = `id,title,price
0,black nike shirt,10
1,white nike shirt,12
2,black adidas shirt,11
3,sony camera kit,200
4,canon camera kit,220
`

const productsNoID = `title
black nike shirt
sony camera kit
`

const queriesCSV = `query,frequency
nike shirt,120
camera kit,60
nike shirt,30
unicorn flux,5
`

func TestProductsWithIDs(t *testing.T) {
	titles, err := Products(strings.NewReader(productsCSV))
	if err != nil {
		t.Fatal(err)
	}
	if len(titles) != 5 || titles[3] != "sony camera kit" {
		t.Fatalf("titles = %v", titles)
	}
}

func TestProductsRowOrder(t *testing.T) {
	titles, err := Products(strings.NewReader(productsNoID))
	if err != nil {
		t.Fatal(err)
	}
	if len(titles) != 2 || titles[1] != "sony camera kit" {
		t.Fatalf("titles = %v", titles)
	}
}

func TestProductsErrors(t *testing.T) {
	cases := map[string]string{
		"missing title": "id,name\n1,x\n",
		"bad id":        "id,title\nx,shirt\n",
		"sparse ids":    "id,title\n5,shirt\n",
		"duplicate ids": "id,title\n0,a\n0,b\n",
		"empty":         "",
	}
	for name, csv := range cases {
		if _, err := Products(strings.NewReader(csv)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestQueriesAccumulateDuplicates(t *testing.T) {
	qs, err := Queries(strings.NewReader(queriesCSV))
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 3 {
		t.Fatalf("queries = %v", qs)
	}
	if qs[0].Text != "nike shirt" || qs[0].Weight != 150 {
		t.Fatalf("duplicate weights not accumulated: %+v", qs[0])
	}
}

func TestQueriesUniform(t *testing.T) {
	qs, err := Queries(strings.NewReader("query\nshirt\ncamera\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if q.Weight != 1 {
			t.Fatalf("uniform weight violated: %+v", q)
		}
	}
}

func TestBuildInstanceEndToEnd(t *testing.T) {
	titles, err := Products(strings.NewReader(productsCSV))
	if err != nil {
		t.Fatal(err)
	}
	qs, err := Queries(strings.NewReader(queriesCSV))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := BuildInstance(titles, qs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// "unicorn flux" matches nothing and is dropped.
	if inst.N() != 2 {
		t.Fatalf("instance has %d sets: %+v", inst.N(), inst.Sets)
	}
	byLabel := map[string]int{}
	for i, s := range inst.Sets {
		byLabel[s.Label] = i
	}
	shirts := inst.Sets[byLabel["nike shirt"]]
	if shirts.Weight != 150 {
		t.Fatalf("weight = %v", shirts.Weight)
	}
	// The two nike shirts must be in the result set.
	if !shirts.Items.Contains(0) || !shirts.Items.Contains(1) {
		t.Fatalf("nike shirt results = %v", shirts.Items)
	}
	cams := inst.Sets[byLabel["camera kit"]]
	if !cams.Items.Contains(3) || !cams.Items.Contains(4) {
		t.Fatalf("camera results = %v", cams.Items)
	}
}

func TestBuildInstanceErrors(t *testing.T) {
	if _, err := BuildInstance(nil, []Query{{Text: "x", Weight: 1}}, Options{}); err == nil {
		t.Fatal("no products accepted")
	}
	if _, err := BuildInstance([]string{"shirt"}, []Query{{Text: "zzz", Weight: 1}}, Options{}); err == nil {
		t.Fatal("all-empty result sets accepted")
	}
}
