package cnf

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func q(id int, text string, w, d int) Query {
	query := MustParse(text)
	query.ID = id
	query.Window = w
	query.Duration = d
	return query
}

func TestParseSimple(t *testing.T) {
	query := MustParse("car >= 2")
	if len(query.Clauses) != 1 || len(query.Clauses[0]) != 1 {
		t.Fatalf("clauses = %v", query.Clauses)
	}
	c := query.Clauses[0][0]
	if c.Label != "car" || c.Op != GE || c.N != 2 {
		t.Fatalf("cond = %+v", c)
	}
}

func TestParseCNF(t *testing.T) {
	query := MustParse("car >= 2 AND (person <= 3 OR bus = 1) AND truck = 0")
	if len(query.Clauses) != 3 {
		t.Fatalf("clauses = %d", len(query.Clauses))
	}
	if len(query.Clauses[1]) != 2 {
		t.Fatalf("second clause = %v", query.Clauses[1])
	}
	want := "car >= 2 AND (person <= 3 OR bus = 1) AND truck = 0"
	if got := query.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestParseSynonyms(t *testing.T) {
	a := MustParse("car >= 2 and (person <= 3 or bus == 1)")
	b := MustParse("car >= 2 && (person <= 3 || bus = 1)")
	if a.String() != b.String() {
		t.Errorf("synonym forms differ: %q vs %q", a.String(), b.String())
	}
}

func TestParseRoundTrip(t *testing.T) {
	inputs := []string{
		"car >= 2",
		"car >= 2 AND person <= 3",
		"(car >= 2 OR truck >= 1) AND bus = 0",
		"(person >= 1 OR person <= 0) AND (car >= 5 OR car = 2 OR truck <= 1)",
	}
	for _, in := range inputs {
		q1 := MustParse(in)
		q2 := MustParse(q1.String())
		if q1.String() != q2.String() {
			t.Errorf("round trip of %q: %q then %q", in, q1.String(), q2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"car",
		"car >=",
		"car > 2", // strict inequality unsupported
		"car < 2",
		">= 2",
		"car >= 2 AND",
		"car >= 2 OR person <= 1", // OR outside parentheses
		"(car >= 2",
		"car >= 2)",
		"(car >= 2 AND person <= 1)", // AND inside parentheses
		"car >= 2 person <= 1",
		"car & 2",
		"car | 2",
		"car >= x",
		"2 >= car",
		"car >= 2 %",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

func TestConditionMatches(t *testing.T) {
	cases := []struct {
		c     Condition
		count int
		want  bool
	}{
		{Condition{Label: "car", Op: GE, N: 2}, 2, true},
		{Condition{Label: "car", Op: GE, N: 2}, 1, false},
		{Condition{Label: "car", Op: LE, N: 2}, 2, true},
		{Condition{Label: "car", Op: LE, N: 2}, 3, false},
		{Condition{Label: "car", Op: EQ, N: 2}, 2, true},
		{Condition{Label: "car", Op: EQ, N: 2}, 0, false},
		{Condition{Label: "car", Op: GE, N: 0}, 0, true},
	}
	for _, tt := range cases {
		if got := tt.c.Matches(tt.count); got != tt.want {
			t.Errorf("%v.Matches(%d) = %v", tt.c, tt.count, got)
		}
	}
}

func TestQueryLabelsAndGEOnly(t *testing.T) {
	query := MustParse("car >= 2 AND (person >= 1 OR bus >= 3)")
	if !query.GEOnly() {
		t.Error("GEOnly = false for ≥-only query")
	}
	if got := query.Labels(); !reflect.DeepEqual(got, []string{"bus", "car", "person"}) {
		t.Errorf("Labels = %v", got)
	}
	mixed := MustParse("car >= 2 AND person <= 3")
	if mixed.GEOnly() {
		t.Error("GEOnly = true for mixed query")
	}
}

func TestQueryValidate(t *testing.T) {
	good := q(1, "car >= 2", 300, 240)
	if err := good.Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	bad := []Query{
		{ID: 1, Window: 0, Clauses: []Disjunction{{{Label: "car", Op: GE, N: 1}}}},
		{ID: 1, Window: 10, Duration: 11, Clauses: []Disjunction{{{Label: "car", Op: GE, N: 1}}}},
		{ID: 1, Window: 10, Duration: 5, Clauses: []Disjunction{{}}},
		{ID: 1, Window: 10, Duration: 5, Clauses: []Disjunction{{{Label: "", Op: GE, N: 1}}}},
		{ID: 1, Window: 10, Duration: 5, Clauses: []Disjunction{{{Label: "car", Op: GE, N: -1}}}},
		{ID: 1, Window: 10, Duration: 5, Clauses: []Disjunction{{{Label: "car", Op: Op(9), N: 1}}}},
	}
	for i, query := range bad {
		if err := query.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestEvalDirect(t *testing.T) {
	query := MustParse("car >= 2 AND (person <= 3 OR bus = 1)")
	cases := []struct {
		counts map[string]int
		want   bool
	}{
		{map[string]int{"car": 2, "person": 1}, true},
		{map[string]int{"car": 2, "person": 5}, false},
		{map[string]int{"car": 2, "person": 5, "bus": 1}, true},
		{map[string]int{"car": 1, "person": 1}, false},
		{map[string]int{"car": 2}, true}, // person counts zero
		{map[string]int{}, false},
	}
	for _, tt := range cases {
		if got := query.EvalDirect(tt.counts); got != tt.want {
			t.Errorf("EvalDirect(%v) = %v, want %v", tt.counts, got, tt.want)
		}
	}
}

// TestPaperTables4And5 reproduces the CNFEvalE indexes of Tables 4 and 5
// for q2 = (car ≥ 2 ∨ person ≤ 3) ∧ (car ≥ 3 ∨ person ≥ 2) ∧ (car ≤ 5).
func TestPaperTables4And5(t *testing.T) {
	q2 := q(2, "(car >= 2 OR person <= 3) AND (car >= 3 OR person >= 2) AND car <= 5", 300, 240)
	e, err := NewEvalE(q2)
	if err != nil {
		t.Fatal(err)
	}

	// Table 4 (≥ index): Car → [(2, (2,0)), (3, (2,1))] ascending;
	// Person → [(2, (2,1))].
	wantGECar := []IndexEntry{{Value: 2, QID: 2, DisjID: 0}, {Value: 3, QID: 2, DisjID: 1}}
	if got := e.GEIndex("car"); !reflect.DeepEqual(got, wantGECar) {
		t.Errorf("GEIndex(car) = %v, want %v", got, wantGECar)
	}
	wantGEPerson := []IndexEntry{{Value: 2, QID: 2, DisjID: 1}}
	if got := e.GEIndex("person"); !reflect.DeepEqual(got, wantGEPerson) {
		t.Errorf("GEIndex(person) = %v, want %v", got, wantGEPerson)
	}

	// Table 5 (≤ index): Car → [(5, (2,2))]; Person → [(3, (2,0))].
	wantLECar := []IndexEntry{{Value: 5, QID: 2, DisjID: 2}}
	if got := e.LEIndex("car"); !reflect.DeepEqual(got, wantLECar) {
		t.Errorf("LEIndex(car) = %v, want %v", got, wantLECar)
	}
	wantLEPerson := []IndexEntry{{Value: 3, QID: 2, DisjID: 0}}
	if got := e.LEIndex("person"); !reflect.DeepEqual(got, wantLEPerson) {
		t.Errorf("LEIndex(person) = %v, want %v", got, wantLEPerson)
	}

	// Semantics checks.
	cases := []struct {
		counts map[string]int
		want   bool
	}{
		{map[string]int{"car": 3, "person": 0}, true},
		{map[string]int{"car": 2, "person": 2}, true},
		{map[string]int{"car": 2, "person": 4}, false}, // clause 2: car<3, person... wait person>=2 holds
		{map[string]int{"car": 6, "person": 2}, false}, // car <= 5 fails
		{map[string]int{"car": 0, "person": 0}, false}, // clause 2 fails
	}
	for _, tt := range cases {
		want := q2.EvalDirect(tt.counts)
		got := len(e.Matches(tt.counts)) == 1
		if got != want {
			t.Errorf("Matches(%v) = %v, direct = %v", tt.counts, got, want)
		}
		if tt.counts["car"] == 2 && tt.counts["person"] == 4 {
			continue // covered by direct comparison above
		}
		if got != tt.want {
			t.Errorf("Matches(%v) = %v, want %v", tt.counts, got, tt.want)
		}
	}
}

func TestEvalELEOrderingDescending(t *testing.T) {
	a := q(1, "car <= 3", 10, 5)
	b := q(2, "car <= 7", 10, 5)
	c := q(3, "car <= 5", 10, 5)
	e, err := NewEvalE(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	idx := e.LEIndex("car")
	for i := 1; i < len(idx); i++ {
		if idx[i-1].Value < idx[i].Value {
			t.Fatalf("≤ index not descending: %v", idx)
		}
	}
	// count=6: only car<=7 qualifies, and the scan must stop after it.
	if got := e.Matches(map[string]int{"car": 6}); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("Matches = %v, want [2]", got)
	}
}

func TestEvalEGEOrderingAscending(t *testing.T) {
	e, err := NewEvalE(
		q(1, "car >= 5", 10, 5),
		q(2, "car >= 1", 10, 5),
		q(3, "car >= 3", 10, 5),
	)
	if err != nil {
		t.Fatal(err)
	}
	idx := e.GEIndex("car")
	for i := 1; i < len(idx); i++ {
		if idx[i-1].Value > idx[i].Value {
			t.Fatalf("≥ index not ascending: %v", idx)
		}
	}
	if got := e.Matches(map[string]int{"car": 3}); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("Matches = %v, want [2 3]", got)
	}
}

func TestEvalEEquality(t *testing.T) {
	e, err := NewEvalE(q(1, "car = 2 AND person = 0", 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Matches(map[string]int{"car": 2}); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("Matches = %v, want [1]", got)
	}
	if got := e.Matches(map[string]int{"car": 2, "person": 1}); len(got) != 0 {
		t.Errorf("Matches = %v, want none", got)
	}
	if got := e.EQIndex("car", 2); len(got) != 1 {
		t.Errorf("EQIndex = %v", got)
	}
}

func TestEvalEAddRemove(t *testing.T) {
	e, err := NewEvalE(q(1, "car >= 1", 10, 5), q(2, "car >= 2 AND person <= 1", 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Matches(map[string]int{"car": 2}); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("Matches = %v", got)
	}
	if !e.Remove(2) {
		t.Fatal("Remove(2) = false")
	}
	if got := e.Matches(map[string]int{"car": 2}); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("after remove Matches = %v", got)
	}
	if e.Remove(2) {
		t.Error("second Remove = true")
	}
	if err := e.Add(q(1, "car >= 1", 10, 5)); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, err := NewEvalE(Query{ID: 5, Window: 10, Duration: 5}); err == nil {
		t.Error("zero-clause query accepted")
	}
}

func TestEvalEGEOnlyAndAnySatisfied(t *testing.T) {
	e, _ := NewEvalE(q(1, "car >= 2", 10, 5), q(2, "person >= 3", 10, 5))
	if !e.GEOnly() {
		t.Error("GEOnly = false")
	}
	if !e.AnySatisfied(map[string]int{"car": 2}) {
		t.Error("AnySatisfied = false, want true")
	}
	if e.AnySatisfied(map[string]int{"car": 1, "person": 2}) {
		t.Error("AnySatisfied = true, want false")
	}
	e2, _ := NewEvalE(q(1, "car >= 2", 10, 5), q(2, "person <= 3", 10, 5))
	if e2.GEOnly() {
		t.Error("GEOnly = true with a ≤ query")
	}
}

// randomQuery builds a random CNF query over a small label alphabet.
func randomQuery(r *rand.Rand, id int) Query {
	labels := []string{"person", "car", "truck", "bus"}
	nclauses := 1 + r.Intn(3)
	var clauses []Disjunction
	for i := 0; i < nclauses; i++ {
		nconds := 1 + r.Intn(3)
		var d Disjunction
		for j := 0; j < nconds; j++ {
			d = append(d, Condition{
				Label: labels[r.Intn(len(labels))],
				Op:    Op(r.Intn(3)),
				N:     r.Intn(6),
			})
		}
		clauses = append(clauses, d)
	}
	return Query{ID: id, Clauses: clauses, Window: 10, Duration: 5}
}

// TestPropertyEvalEMatchesDirect cross-checks the indexed evaluator
// against direct CNF semantics on random queries and inputs.
func TestPropertyEvalEMatchesDirect(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		queries := make([]Query, n)
		for i := range queries {
			queries[i] = randomQuery(r, i+1)
		}
		e, err := NewEvalE(queries...)
		if err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			counts := map[string]int{
				"person": r.Intn(7),
				"car":    r.Intn(7),
				"truck":  r.Intn(7),
				"bus":    r.Intn(7),
			}
			got := e.Matches(counts)
			var want []int
			for _, query := range queries {
				if query.EvalDirect(counts) {
					want = append(want, query.ID)
				}
			}
			if !reflect.DeepEqual(got, append([]int{}, want...)) {
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				return false
			}
			if e.AnySatisfied(counts) != (len(want) > 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyParsePrintParse: printing then reparsing preserves meaning.
func TestPropertyParsePrintParse(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q1 := randomQuery(r, 1)
		q2, err := Parse(q1.String())
		if err != nil {
			return false
		}
		for trial := 0; trial < 5; trial++ {
			counts := map[string]int{
				"person": r.Intn(7), "car": r.Intn(7),
				"truck": r.Intn(7), "bus": r.Intn(7),
			}
			if q1.EvalDirect(counts) != q2.EvalDirect(counts) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestOpString(t *testing.T) {
	if LE.String() != "<=" || EQ.String() != "=" || GE.String() != ">=" {
		t.Error("operator rendering wrong")
	}
	if !strings.Contains(Op(9).String(), "9") {
		t.Error("unknown op rendering wrong")
	}
}

func TestDisjunctionString(t *testing.T) {
	d := Disjunction{{Label: "car", Op: GE, N: 1}, {Label: "bus", Op: LE, N: 2}}
	if got := d.String(); got != "(car >= 1 OR bus <= 2)" {
		t.Errorf("String = %q", got)
	}
	single := Disjunction{{Label: "car", Op: GE, N: 1}}
	if got := single.String(); got != "car >= 1" {
		t.Errorf("String = %q", got)
	}
}

func ExampleParse() {
	q, _ := Parse("car >= 2 AND (person <= 3 OR bus = 1)")
	fmt.Println(q.String())
	fmt.Println(q.EvalDirect(map[string]int{"car": 2, "person": 1}))
	// Output:
	// car >= 2 AND (person <= 3 OR bus = 1)
	// true
}
