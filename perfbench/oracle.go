package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
)

// The Calc family (CalcDet.bnf, CalcLL.bnf and Calc.sdf) is one
// expression language. Its inputs are generated here as abstract
// tokens: "n" for an operand, the operators, and parentheses. The next
// token rule below decides acceptance, error positions and accept sets
// without consulting the program.

const maxTrees = 1e15 // generated inputs stay far below int64 saturation

// calcState is the next token rule's state after a valid prefix: the
// parenthesis depth and whether an operand must come next.
type calcState struct {
	depth       int
	wantOperand bool
}

func calcStart() calcState { return calcState{wantOperand: true} }

// next returns the tokens that may follow, "$" for the end of input,
// sorted. ops is the operator alphabet.
func (s calcState) next(ops []string) []string {
	if s.wantOperand {
		return []string{"(", "n"}
	}
	out := slices.Clone(ops)
	if s.depth > 0 {
		out = append(out, ")")
	} else {
		out = append(out, "$")
	}
	sort.Strings(out)
	return out
}

// feed advances the state over token t, which must be in next.
func (s *calcState) feed(t string) {
	switch t {
	case "(":
		s.depth++
	case ")":
		s.depth--
	case "n":
		s.wantOperand = false
	default:
		s.wantOperand = true
	}
}

// calcVerdict runs the next token rule over toks. For a valid sentence
// it returns pos -1; otherwise the index of the first token that cannot
// follow its prefix (len(toks) for a premature end) and the tokens that
// could have.
func calcVerdict(toks []string, ops []string) (pos int, expected []string) {
	s := calcStart()
	for i, t := range toks {
		next := s.next(ops)
		if !slices.Contains(next, t) {
			return i, next
		}
		s.feed(t)
	}
	if next := s.next(ops); !slices.Contains(next, "$") {
		return len(toks), next
	}
	return -1, nil
}

// calcPrefixAccepts returns the accept set after toks[:n].
func calcPrefixAccepts(toks []string, n int, ops []string) []string {
	s := calcStart()
	for _, t := range toks[:n] {
		s.feed(t)
	}
	return s.next(ops)
}

// genCalc generates a valid expression of about budget tokens. An
// operand chain has at most maxChain operands. With mixAtoms, chains
// whose operands are all atoms draw each operator freely, which makes
// Calc.sdf sentences ambiguous; every other chain uses one additive and
// one multiplicative operator, so its derivation is unique.
func genCalc(r *rand.Rand, budget int, ops []string, maxChain int, mixAtoms bool) []string {
	var out []string
	var expr func(budget int)
	expr = func(budget int) {
		if budget <= 2 {
			out = append(out, "n")
			return
		}
		m := 1 + r.IntN(min(maxChain, (budget+1)/2))
		parts := make([]int, m)
		rem := budget - (m - 1)
		for i := range parts {
			parts[i] = 1
		}
		for k := rem - m; k > 0; k-- {
			parts[r.IntN(m)]++
		}
		atoms := true
		for _, p := range parts {
			atoms = atoms && p < 3
		}
		add, mul := "+", "*"
		if r.IntN(2) == 0 {
			add = "-"
		}
		if r.IntN(2) == 0 {
			mul = "/"
		}
		for i, p := range parts {
			if i > 0 {
				op := ops[r.IntN(len(ops))]
				if !(mixAtoms && atoms) {
					switch op {
					case "+", "-":
						op = add
					case "*", "/":
						op = mul
					}
				}
				out = append(out, op)
			}
			if p < 3 {
				out = append(out, "n")
				continue
			}
			out = append(out, "(")
			expr(p - 2)
			out = append(out, ")")
		}
	}
	expr(budget)
	return out
}

// damageClass is the kind of position at which a sentence is damaged:
// what the next token rule allows there.
type damageClass int

const (
	atOperand         damageClass = iota // "(" or an operand
	atOperatorOrEnd                      // an operator or the end, outside parentheses
	atOperatorOrClose                    // an operator or ")", inside parentheses
	damageClasses
)

func (s calcState) class() damageClass {
	switch {
	case s.wantOperand:
		return atOperand
	case s.depth == 0:
		return atOperatorOrEnd
	default:
		return atOperatorOrClose
	}
}

// corruptCalc damages a valid sentence at a drawn position of the given
// class: it replaces the token there with one the next token rule
// forbids, or cuts the sentence short where its prefix is not complete.
// It reports false when the sentence has no position of that class.
func corruptCalc(r *rand.Rand, toks []string, ops []string, class damageClass) ([]string, bool) {
	var at []int
	var states []calcState
	s := calcStart()
	for p := 0; p <= len(toks); p++ {
		if s.class() == class {
			at, states = append(at, p), append(states, s)
		}
		if p < len(toks) {
			s.feed(toks[p])
		}
	}
	if len(at) == 0 {
		return nil, false
	}
	k := r.IntN(len(at))
	p, next := at[k], states[k].next(ops)
	if p < len(toks) && r.IntN(3) == 0 && !slices.Contains(next, "$") {
		return slices.Clone(toks[:p]), true
	}
	var wrong []string
	for _, t := range append([]string{"n", "(", ")"}, ops...) {
		if !slices.Contains(next, t) {
			wrong = append(wrong, t)
		}
	}
	bad := slices.Clone(toks[:p])
	bad = append(bad, wrong[r.IntN(len(wrong))])
	if p < len(toks) {
		bad = append(bad, toks[p+1:]...)
	}
	return bad, true
}

// Calc.sdf's disambiguation: "^" > {"*", "/"} > {"+", "-"} (closed
// transitively), "^" right-associative, the others left-associative.
// As internal/priority documents them, r1 > r2 forbids r2 as a direct
// child of r1, and associativity forbids a rule as its own rightmost
// (left) or leftmost (right) operand.
var calcLevel = map[string]int{"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}

func calcForbidden(parent string, right bool, child string) bool {
	pl, cl := calcLevel[parent], calcLevel[child]
	if cl > 0 && pl > cl {
		return true
	}
	if child != parent {
		return false
	}
	if parent == "^" {
		return !right
	}
	return right
}

// calcTrees counts the derivations of a valid Calc.sdf sentence that
// survive the priority and associativity filters.
func calcTrees(toks []string) int64 {
	pos := 0
	var chain func() float64
	chain = func() float64 {
		// One operand chain up to the closing parenthesis or the end.
		var operands []float64
		var ops []string
		for {
			if toks[pos] == "(" {
				pos++
				operands = append(operands, chain())
				pos++ // ")"
			} else {
				operands = append(operands, 1)
				pos++
			}
			if pos >= len(toks) || toks[pos] == ")" {
				break
			}
			ops = append(ops, toks[pos])
			pos++
		}
		return chainTrees(operands, ops)
	}
	return int64(chain())
}

// chainTrees counts the filtered derivations of operand chain
// x0 op0 x1 ... by interval dynamic programming over the top rule of
// each span ("" for an operand).
func chainTrees(operands []float64, ops []string) float64 {
	m := len(operands)
	type cell map[string]float64
	span := make([][]cell, m)
	for i := range span {
		span[i] = make([]cell, m)
		span[i][i] = cell{"": operands[i]}
	}
	for width := 1; width < m; width++ {
		for i := 0; i+width < m; i++ {
			j := i + width
			c := cell{}
			for k := i; k < j; k++ {
				op := ops[k]
				var left, right float64
				for top, n := range span[i][k] {
					if !calcForbidden(op, false, top) {
						left += n
					}
				}
				for top, n := range span[k+1][j] {
					if !calcForbidden(op, true, top) {
						right += n
					}
				}
				c[op] += left * right
			}
			span[i][j] = c
		}
	}
	var total float64
	for _, n := range span[0][m-1] {
		total += n
	}
	return total
}

// calcText spells abstract tokens as Calc.sdf source, drawing numbers.
func calcText(r *rand.Rand, toks []string) string {
	var b strings.Builder
	for i, t := range toks {
		if i > 0 {
			b.WriteByte(' ')
		}
		if t == "n" {
			fmt.Fprintf(&b, "%d", r.IntN(1000))
		} else {
			b.WriteString(t)
		}
	}
	return b.String()
}

// renderedLeaves reads the leaves of a bracketed forest rendering
// (Lhs(child child), {alt | alt} for ambiguities) given the names of
// the grammar's nonterminals. Every alternative of an ambiguity must
// spell the same leaves.
func renderedLeaves(s string, nonterminals map[string]bool) ([]string, error) {
	// Nonterminal names may hold spaces and braces ("{ID ,}+"), so a
	// node is recognized by a known name followed by "(".
	names := make([]string, 0, len(nonterminals))
	for n := range nonterminals {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return len(names[i]) > len(names[j]) })
	pos := 0
	var item func() ([]string, error)
	item = func() ([]string, error) {
		for _, n := range names {
			if strings.HasPrefix(s[pos:], n) && strings.HasPrefix(s[pos+len(n):], "(") {
				pos += len(n) + 1
				var leaves []string
				for {
					if strings.HasPrefix(s[pos:], ")") && s[pos-1] != ' ' {
						pos++
						return leaves, nil
					}
					sub, err := item()
					if err != nil {
						return nil, err
					}
					leaves = append(leaves, sub...)
					if strings.HasPrefix(s[pos:], " ") {
						pos++
					}
				}
			}
		}
		// An ambiguity opens with "{" and an alternative; a leaf named
		// "{" is followed by a separator.
		if strings.HasPrefix(s[pos:], "{") && pos+1 < len(s) && s[pos+1] != ' ' && s[pos+1] != ')' {
			pos++
			var first []string
			for alt := 0; ; alt++ {
				leaves, err := item()
				if err != nil {
					return nil, err
				}
				if alt == 0 {
					first = leaves
				} else if !slices.Equal(first, leaves) {
					return nil, fmt.Errorf("ambiguity alternatives spell different leaves at %d", pos)
				}
				if strings.HasPrefix(s[pos:], " | ") {
					pos += 3
					continue
				}
				if !strings.HasPrefix(s[pos:], "}") {
					return nil, fmt.Errorf("unterminated ambiguity at %d", pos)
				}
				pos++
				return first, nil
			}
		}
		end := pos
		for end < len(s) && s[end] != ' ' && s[end] != ')' && s[end] != '}' {
			end++
		}
		if end == pos && end < len(s) {
			end++ // a one-character leaf spelled like punctuation
		}
		if end == pos {
			return nil, fmt.Errorf("missing leaf at %d", pos)
		}
		leaf := s[pos:end]
		pos = end
		return []string{leaf}, nil
	}
	leaves, err := item()
	if err == nil && pos != len(s) {
		err = fmt.Errorf("trailing text at %d", pos)
	}
	return leaves, err
}
