package parikh

import (
	"math/rand"
	"testing"

	"repro/internal/lia"
)

// realizable reports whether some accepting run from a.Init to a.Final
// uses each edge exactly counts[i] times (Euler-path style search).
func realizable(a Automaton, counts []int) bool {
	total := 0
	for _, c := range counts {
		total += c
	}
	remaining := append([]int(nil), counts...)
	var dfs func(state, left int) bool
	dfs = func(state, left int) bool {
		if left == 0 {
			return state == a.Final
		}
		for i, e := range a.Edges {
			if e.From == state && remaining[i] > 0 {
				remaining[i]--
				if dfs(e.To, left-1) {
					remaining[i]++
					return true
				}
				remaining[i]++
			}
		}
		return false
	}
	return dfs(a.Init, total)
}

// formulaSat checks whether the Parikh formula admits the given counts.
func formulaSat(t *testing.T, a Automaton, counts []int) bool {
	t.Helper()
	pool := lia.NewPool()
	flow := make([]lia.Var, len(a.Edges))
	for i := range flow {
		flow[i] = pool.Fresh("y")
	}
	f := Formula(a, flow, pool)
	var conj []lia.Formula
	conj = append(conj, f)
	for i, c := range counts {
		conj = append(conj, lia.EqConst(flow[i], int64(c)))
	}
	res, _ := lia.Solve(lia.And(conj...), nil)
	if res == lia.ResUnknown {
		t.Fatalf("unexpected unknown for counts %v", counts)
	}
	return res == lia.ResSat
}

func enumVectors(n, max int, visit func([]int)) {
	vec := make([]int, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			visit(vec)
			return
		}
		for v := 0; v <= max; v++ {
			vec[i] = v
			rec(i + 1)
		}
	}
	rec(0)
}

func checkAutomaton(t *testing.T, a Automaton, maxCount int) {
	t.Helper()
	enumVectors(len(a.Edges), maxCount, func(vec []int) {
		want := realizable(a, vec)
		got := formulaSat(t, a, vec)
		if got != want {
			t.Fatalf("automaton %+v counts %v: formula=%v realizable=%v", a, vec, got, want)
		}
	})
}

func TestLinearChain(t *testing.T) {
	a := Automaton{NumStates: 3, Init: 0, Final: 2, Edges: []Edge{{0, 1}, {1, 2}}}
	checkAutomaton(t, a, 2)
}

func TestSelfLoop(t *testing.T) {
	a := Automaton{NumStates: 2, Init: 0, Final: 1, Edges: []Edge{{0, 0}, {0, 1}}}
	checkAutomaton(t, a, 3)
}

func TestCycleNotConnected(t *testing.T) {
	// A disconnected cycle 2->3->2 must not be usable.
	a := Automaton{NumStates: 4, Init: 0, Final: 1, Edges: []Edge{{0, 1}, {2, 3}, {3, 2}}}
	checkAutomaton(t, a, 2)
}

func TestInitEqualsFinal(t *testing.T) {
	a := Automaton{NumStates: 2, Init: 0, Final: 0, Edges: []Edge{{0, 1}, {1, 0}}}
	checkAutomaton(t, a, 3)
}

func TestDiamond(t *testing.T) {
	a := Automaton{NumStates: 4, Init: 0, Final: 3, Edges: []Edge{
		{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 0},
	}}
	checkAutomaton(t, a, 2)
}

func TestPropertyRandomAutomata(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive cross-check is slow")
	}
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 12; iter++ {
		states := 2 + rng.Intn(3)
		edges := 2 + rng.Intn(4)
		a := Automaton{NumStates: states, Init: 0, Final: rng.Intn(states)}
		for i := 0; i < edges; i++ {
			a.Edges = append(a.Edges, Edge{From: rng.Intn(states), To: rng.Intn(states)})
		}
		checkAutomaton(t, a, 2)
	}
}
