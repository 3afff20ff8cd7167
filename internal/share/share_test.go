package share

import (
	"math"
	"slices"
	"testing"

	"repro/internal/deps"
	"repro/internal/nsga2"
)

func validProblem() Problem {
	return Problem{
		Resources: []Resource{
			{Layer: deps.Ingestion, Name: "shards", CostPerUnit: 0.015, Min: 1, Max: 20, Integer: true},
			{Layer: deps.Analytics, Name: "vms", CostPerUnit: 0.10, Min: 1, Max: 20, Integer: true},
		},
		Budget: 1.0,
	}
}

func TestValidate(t *testing.T) {
	if err := validProblem().Validate(); err != nil {
		t.Fatal(err)
	}
	p := validProblem()
	p.Resources = nil
	if err := p.Validate(); err == nil {
		t.Fatal("no resources accepted")
	}
	p = validProblem()
	p.Budget = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero budget accepted")
	}
	p = validProblem()
	p.Resources[0].CostPerUnit = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero cost accepted")
	}
	p = validProblem()
	p.Resources[0].Min = 30 // > Max
	if err := p.Validate(); err == nil {
		t.Fatal("min>max accepted")
	}
	p = validProblem()
	p.Constraints = []Constraint{{Coeffs: []float64{1}, Bound: 0}}
	if err := p.Validate(); err == nil {
		t.Fatal("wrong-arity constraint accepted")
	}
}

func TestConstraintViolation(t *testing.T) {
	c := Constraint{Coeffs: []float64{1, -5}, Bound: 0} // r0 − 5·r1 ≤ 0
	if v := c.Violation([]float64{10, 3}); v != 0 {
		t.Fatalf("satisfied constraint violation = %v", v)
	}
	if v := c.Violation([]float64{20, 3}); math.Abs(v-5) > 1e-12 {
		t.Fatalf("violated constraint violation = %v, want 5", v)
	}
}

func TestCostAndQuantize(t *testing.T) {
	p := validProblem()
	if got := p.Cost([]float64{10, 5}); math.Abs(got-(10*0.015+5*0.10)) > 1e-12 {
		t.Fatalf("Cost = %v", got)
	}
	q := p.quantize([]float64{3.7, 25.2})
	if q[0] != 4 || q[1] != 20 {
		t.Fatalf("quantize = %v, want [4 20]", q)
	}
}

func TestAnalyzeRespectsBudgetAndConstraints(t *testing.T) {
	p := validProblem()
	p.Constraints = []Constraint{
		{Coeffs: []float64{1, -2}, Bound: 0, Label: "shards ≤ 2·vms"},
	}
	plans, err := Analyze(p, nsga2.Config{PopSize: 80, Generations: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("no feasible plans")
	}
	for _, plan := range plans {
		if plan.HourlyCost > p.Budget+1e-9 {
			t.Fatalf("plan %v exceeds budget: %v", plan.Amounts, plan.HourlyCost)
		}
		if plan.Amounts[0] > 2*plan.Amounts[1]+1e-9 {
			t.Fatalf("plan %v violates constraint", plan.Amounts)
		}
		for i, r := range p.Resources {
			v := plan.Amounts[i]
			if v < r.Min || v > r.Max || v != math.Round(v) {
				t.Fatalf("plan amount %v outside integral range of %s", v, r.Name)
			}
		}
	}
}

// dominatesMax is the test's independent oracle for maximisation
// dominance (the production path goes through nsga2.NonDominated).
func dominatesMax(a, b []float64) bool {
	better := false
	for i := range a {
		if a[i] < b[i] {
			return false
		}
		if a[i] > b[i] {
			better = true
		}
	}
	return better
}

func TestAnalyzeFrontIsMutuallyNonDominated(t *testing.T) {
	p := validProblem()
	plans, err := Analyze(p, nsga2.Config{PopSize: 60, Generations: 80, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plans {
		for j := range plans {
			if i != j && dominatesMax(plans[i].Amounts, plans[j].Amounts) {
				t.Fatalf("plan %v dominates plan %v on the returned front",
					plans[i].Amounts, plans[j].Amounts)
			}
		}
	}
	// Dedup: no identical allocation twice.
	seen := map[string]bool{}
	for _, plan := range plans {
		k := ""
		for _, v := range plan.Amounts {
			k += "|"
			k += string(rune(int(v)))
		}
		if seen[k] {
			t.Fatalf("duplicate plan %v", plan.Amounts)
		}
		seen[k] = true
	}
}

func TestAnalyzeDeterminism(t *testing.T) {
	p := validProblem()
	a, err := Analyze(p, nsga2.Config{PopSize: 40, Generations: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(p, nsga2.Config{PopSize: 40, Generations: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("plan counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for k := range a[i].Amounts {
			if a[i].Amounts[k] != b[i].Amounts[k] {
				t.Fatal("same-seed plans differ")
			}
		}
	}
}

// paperFront is the exact Pareto front of PaperExampleProblem(0.29, 0.015,
// 0.10, 0.00065) as (shards, VMs, WCU), in Analyze's order. In decimal
// arithmetic (4, 1, 200) costs exactly the budget and would replace
// (4, 1, 199); Problem.Cost prices it at 0.29000000000000004 in float64,
// above the budget literal, so the model's front holds (4, 1, 199).
var paperFront = [][]float64{
	{2, 1, 246}, {3, 1, 223}, {4, 1, 199}, {4, 2, 46}, {5, 1, 176}, {5, 2, 23},
}

// exactFront solves a three-resource integer problem by enumeration: for
// every whole (first, second) allocation it takes the largest whole third
// allocation that the budget and constraints allow, priced by the model's
// own Cost, then keeps the Pareto-optimal plans in Analyze's order.
func exactFront(p Problem) []Plan {
	r0, r1, r2 := p.Resources[0], p.Resources[1], p.Resources[2]
	infeasible := func(x []float64) bool {
		if p.Cost(x) > p.Budget {
			return true
		}
		for _, c := range p.Constraints {
			if c.Violation(x) > 0 {
				return true
			}
		}
		return false
	}
	var plans []Plan
	for a := r0.Min; a <= r0.Max; a++ {
		for b := r1.Min; b <= r1.Max; b++ {
			left := p.Budget - a*r0.CostPerUnit - b*r1.CostPerUnit
			x := []float64{a, b, math.Min(r2.Max, math.Floor(left/r2.CostPerUnit)+1)}
			for x[2] >= r2.Min && infeasible(x) {
				x[2]--
			}
			if x[2] >= r2.Min {
				plans = append(plans, Plan{Amounts: x, HourlyCost: p.Cost(x)})
			}
		}
	}
	plans = paretoFilter(plans)
	slices.SortFunc(plans, func(x, y Plan) int { return slices.Compare(x.Amounts, y.Amounts) })
	return plans
}

// checkFront fails unless plans hold exactly the allocations in want, in
// order.
func checkFront(t *testing.T, what string, plans []Plan, want [][]float64) {
	t.Helper()
	got := make([][]float64, len(plans))
	for i, plan := range plans {
		got[i] = plan.Amounts
	}
	if !slices.EqualFunc(got, want, slices.Equal[[]float64]) {
		t.Fatalf("%s front is %v, want %v", what, got, want)
	}
}

func TestExactFrontOfPaperExample(t *testing.T) {
	checkFront(t, "enumerated", exactFront(PaperExampleProblem(0.29, 0.015, 0.10, 0.00065)), paperFront)
}

func TestPaperExampleProblem(t *testing.T) {
	// With 2017 prices and a 0.29 $/h budget the exact Pareto front of the
	// paper's constraint set has six integer plans, matching Fig. 4's six
	// solutions. The solve is the one Fig. 4 reports (seed 42, 120 × 250),
	// and it must find that front, WCU included.
	const budget = 0.29
	p := PaperExampleProblem(budget, 0.015, 0.10, 0.00065)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	plans, err := Analyze(p, nsga2.Config{PopSize: 120, Generations: 250, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	checkFront(t, "NSGA-II", plans, paperFront)
	for _, plan := range plans {
		rI, rA, rS := plan.Amounts[0], plan.Amounts[1], plan.Amounts[2]
		if rI > 5*rA+1e-9 {
			t.Fatalf("plan %v violates 5·vms ≥ shards", plan.Amounts)
		}
		if 2*rA > rI+1e-9 {
			t.Fatalf("plan %v violates 2·vms ≤ shards", plan.Amounts)
		}
		if 2*rI > rS+1e-9 {
			t.Fatalf("plan %v violates 2·shards ≤ wcu", plan.Amounts)
		}
		if plan.HourlyCost > budget+1e-9 {
			t.Fatalf("plan %v costs $%v/h, over the $%v/h budget", plan.Amounts, plan.HourlyCost, budget)
		}
	}
}

func TestFromDependency(t *testing.T) {
	cs := FromDependency(4.8, 0.0002, 0, 1, 2, 1.0)
	if len(cs) != 2 {
		t.Fatalf("got %d constraints, want 2", len(cs))
	}
	// A point on the line r1 = 4.8 + 0.0002·r0 must satisfy both.
	onLine := []float64{10000, 4.8 + 0.0002*10000}
	for _, c := range cs {
		if v := c.Violation(onLine); v > 1e-9 {
			t.Fatalf("on-line point violates %q by %v", c.Label, v)
		}
	}
	// A point far above the line violates the upper constraint.
	above := []float64{10000, 100}
	if cs[0].Violation(above) == 0 {
		t.Fatal("far-above point does not violate upper sandwich")
	}
	// A point far below violates the lower constraint.
	below := []float64{10000, 0}
	if cs[1].Violation(below) == 0 {
		t.Fatal("far-below point does not violate lower sandwich")
	}
}

func TestAnalyzeInvalidProblem(t *testing.T) {
	if _, err := Analyze(Problem{}, nsga2.Config{}); err == nil {
		t.Fatal("invalid problem accepted")
	}
}
