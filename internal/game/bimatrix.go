// Package game implements the game-theoretic core of the paper (§III, §V):
// bimatrix games with pure and mixed strategies, Nash and Stackelberg
// solution concepts, the ultimatum game of Table I, the mixed-strategy
// reduction of arbitrary poison distributions to the [xL, xR] endpoints,
// and the repeated-game compliance analysis of Theorem 3.
package game

import (
	"fmt"
	"math"
)

// Bimatrix is a finite two-player game in normal form. Player 1 (the
// collector in this paper) chooses a row; player 2 (the adversary) chooses
// a column. P1[i][j] and P2[i][j] are the respective payoffs.
type Bimatrix struct {
	RowNames []string
	ColNames []string
	P1       [][]float64
	P2       [][]float64
}

// NewBimatrix validates shapes and builds the game.
func NewBimatrix(rowNames, colNames []string, p1, p2 [][]float64) (*Bimatrix, error) {
	r, c := len(rowNames), len(colNames)
	if r == 0 || c == 0 {
		return nil, fmt.Errorf("game: empty strategy set")
	}
	check := func(m [][]float64, who string) error {
		if len(m) != r {
			return fmt.Errorf("game: %s has %d rows, want %d", who, len(m), r)
		}
		for i, row := range m {
			if len(row) != c {
				return fmt.Errorf("game: %s row %d has %d cols, want %d", who, i, len(row), c)
			}
			for j, v := range row {
				if math.IsNaN(v) {
					return fmt.Errorf("game: %s[%d][%d] is NaN", who, i, j)
				}
			}
		}
		return nil
	}
	if err := check(p1, "P1"); err != nil {
		return nil, err
	}
	if err := check(p2, "P2"); err != nil {
		return nil, err
	}
	return &Bimatrix{RowNames: rowNames, ColNames: colNames, P1: p1, P2: p2}, nil
}

// Rows and Cols return the strategy counts.
func (g *Bimatrix) Rows() int { return len(g.RowNames) }
func (g *Bimatrix) Cols() int { return len(g.ColNames) }

// IsZeroSum reports whether P1 + P2 == 0 everywhere (within tol).
//
//trimlint:allow deadexport reproduction evidence: the analytical model's tests pin the paper's game theory with it
func (g *Bimatrix) IsZeroSum(tol float64) bool {
	for i := range g.P1 {
		for j := range g.P1[i] {
			if math.Abs(g.P1[i][j]+g.P2[i][j]) > tol {
				return false
			}
		}
	}
	return true
}

// BestResponsesRow returns the set of row indices that are best responses
// to column j.
func (g *Bimatrix) BestResponsesRow(j int) []int {
	best := math.Inf(-1)
	for i := range g.P1 {
		if g.P1[i][j] > best {
			best = g.P1[i][j]
		}
	}
	var out []int
	for i := range g.P1 {
		if g.P1[i][j] == best {
			out = append(out, i)
		}
	}
	return out
}

// BestResponsesCol returns the set of column indices that are best
// responses to row i.
func (g *Bimatrix) BestResponsesCol(i int) []int {
	best := math.Inf(-1)
	for j := range g.P2[i] {
		if g.P2[i][j] > best {
			best = g.P2[i][j]
		}
	}
	var out []int
	for j := range g.P2[i] {
		if g.P2[i][j] == best {
			out = append(out, j)
		}
	}
	return out
}

// Outcome is a pure strategy profile.
type Outcome struct {
	Row, Col int
}

// PureNash returns all pure-strategy Nash equilibria: profiles where each
// strategy is a (weak) best response to the other.
func (g *Bimatrix) PureNash() []Outcome {
	var out []Outcome
	for i := 0; i < g.Rows(); i++ {
		for j := 0; j < g.Cols(); j++ {
			if contains(g.BestResponsesRow(j), i) && contains(g.BestResponsesCol(i), j) {
				out = append(out, Outcome{Row: i, Col: j})
			}
		}
	}
	return out
}

// ParetoDominates reports whether outcome a strictly improves at least one
// player over b without hurting the other.
func (g *Bimatrix) ParetoDominates(a, b Outcome) bool {
	p1a, p2a := g.P1[a.Row][a.Col], g.P2[a.Row][a.Col]
	p1b, p2b := g.P1[b.Row][b.Col], g.P2[b.Row][b.Col]
	return p1a >= p1b && p2a >= p2b && (p1a > p1b || p2a > p2b)
}

// StackelbergRow solves the sequential game with the row player (the
// collector) as leader: for each committed row, the column player
// best-responds (breaking ties in the leader's favor, the standard strong
// Stackelberg assumption); the leader picks the row maximizing her payoff.
//
//trimlint:allow deadexport reproduction evidence: the analytical model's tests pin the paper's game theory with it
func (g *Bimatrix) StackelbergRow() (Outcome, error) {
	if g.Rows() == 0 {
		return Outcome{}, fmt.Errorf("game: empty game")
	}
	best := Outcome{Row: -1}
	bestV := math.Inf(-1)
	for i := 0; i < g.Rows(); i++ {
		brs := g.BestResponsesCol(i)
		// Strong Stackelberg tie-breaking: follower picks the best response
		// most favorable to the leader.
		j := brs[0]
		for _, cand := range brs[1:] {
			if g.P1[i][cand] > g.P1[i][j] {
				j = cand
			}
		}
		if g.P1[i][j] > bestV {
			bestV = g.P1[i][j]
			best = Outcome{Row: i, Col: j}
		}
	}
	return best, nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
