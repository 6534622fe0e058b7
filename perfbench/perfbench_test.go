package main

import (
	"io"
	"log/slog"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// TestShort runs every workload briefly, untraced and traced, with all
// output checks on. Operations that fail only by the known fault of the
// lalr, earley and ll backends (errKnownFault) are reported, not fatal.
func TestShort(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service")
	}
	cfg := config{seed: 1, root: "..", log: slog.New(slog.NewTextHandler(io.Discard, nil))}
	var log strings.Builder
	if err := runShort(cfg, &log); err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
}

func TestCalcTrees(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64
	}{
		{"n", 1},
		{"n + n + n", 1},         // left-associative
		{"n + n - n", 2},         // one priority group, no associativity between rules
		{"n * n + n", 1},         // priority
		{"n ^ n ^ n", 1},         // right-associative
		{"n + n - n * n / n", 4}, // two independent ambiguities
		{"n - n + n - n", 4},     // Catalan(3) less a-((b+c)-d), "-" as its own right operand
		{"( n + n - n ) * ( n - n + n )", 4},
	} {
		if got := calcTrees(strings.Fields(c.in)); got != c.want {
			t.Errorf("calcTrees(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestCalcVerdict(t *testing.T) {
	for _, c := range []struct {
		in   string
		pos  int
		want []string
	}{
		{"n + ( n )", -1, nil},
		{"n n", 1, []string{"$", "*", "+", "-", "/"}},
		{"( n n", 2, []string{")", "*", "+", "-", "/"}},
		{"n +", 2, []string{"(", "n"}},
		{"n )", 1, []string{"$", "*", "+", "-", "/"}},
	} {
		pos, got := calcVerdict(strings.Fields(c.in), binOps)
		if pos != c.pos || !slices.Equal(got, c.want) {
			t.Errorf("calcVerdict(%q) = %d %v, want %d %v", c.in, pos, got, c.pos, c.want)
		}
	}
}

// TestCorruptCalc checks that a damaged sentence is rejected at a
// position of the class asked for.
func TestCorruptCalc(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 300; i++ {
		toks := genCalc(r, 3+r.IntN(58), binOps, 6, true)
		for class := range damageClasses {
			bad, ok := corruptCalc(r, toks, binOps, class)
			if !ok {
				continue
			}
			pos, _ := calcVerdict(bad, binOps)
			if pos < 0 {
				t.Fatalf("%v damaged at class %d is still a sentence", bad, class)
			}
			s := calcStart()
			for _, tok := range bad[:pos] {
				s.feed(tok)
			}
			if s.class() != class {
				t.Fatalf("%v rejected at %d, of class %d, want %d", bad, pos, s.class(), class)
			}
		}
	}
}

func TestRenderedLeaves(t *testing.T) {
	nts := map[string]bool{"EXP": true, "{ID ,}+": true, "S": true}
	got, err := renderedLeaves("S({ID ,}+(ID , ID) { ) {EXP(NAT + NAT) | EXP(NAT + NAT)})", nts)
	want := []string{"ID", ",", "ID", "{", ")", "NAT", "+", "NAT"}
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("renderedLeaves = %q, %v; want %q", got, err, want)
	}
	if _, err := renderedLeaves("S({EXP(NAT) | EXP(NAT NAT)})", nts); err == nil {
		t.Fatal("alternatives spelling different leaves were accepted")
	}
}

func TestSameReply(t *testing.T) {
	want := []byte(`{"accepted":true,"duration_us":12,"version":3}`)
	if !sameReply([]byte(`{"accepted":true,"duration_us":4051,"version":9}`), want) {
		t.Error("masked fields compared")
	}
	if sameReply([]byte(`{"accepted":false,"duration_us":12,"version":3}`), want) {
		t.Error("differing answers compared equal")
	}
}
