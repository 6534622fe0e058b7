package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"regexp"
	"slices"
	"sort"
	"strings"

	"ipg/internal/sdf"
	"ipg/internal/serve"
)

var (
	binOps = []string{"+", "-", "*", "/"}      // CalcDet.bnf, CalcLL.bnf
	sdfOps = []string{"+", "-", "*", "/", "^"} // Calc.sdf
)

// target is a grammar fixture registered under a name on one engine.
type target struct{ name, fixture, engine string }

func (b *builder) registerAll(ts ...target) error {
	for _, t := range ts {
		if err := b.register(t.name, t.fixture, t.engine); err != nil {
			return err
		}
	}
	return nil
}

func (b *builder) size(full, short int) int {
	if b.cfg.short {
		return short
	}
	return full
}

func decodeParse(body []byte) (serve.ParseResponse, error) {
	var r serve.ParseResponse
	err := json.Unmarshal(body, &r)
	return r, err
}

// sdfName spells an abstract Calc token as a Calc.sdf terminal name.
func sdfName(t string) string {
	if t == "n" {
		return "NAT"
	}
	return t
}

// errKnownFault marks an answer that is wrong in a way CHANGES.md and
// README.md record as a fault of the program.
var errKnownFault = errors.New("known fault")

// checkVerdict compares a parse answer with the next token rule. With
// knownFault set, a wrong expected set is the recorded fault of the
// lalr, earley and ll backends.
func checkVerdict(toks, ops []string, name func(string) string, knownFault bool) func([]byte) error {
	pos, expected := calcVerdict(toks, ops)
	want := make([]string, len(expected))
	for i, t := range expected {
		want[i] = name(t)
	}
	sort.Strings(want)
	return func(body []byte) error {
		r, err := decodeParse(body)
		if err != nil {
			return err
		}
		if r.Accepted != (pos < 0) {
			return fmt.Errorf("accepted=%v, next token rule says error at %d", r.Accepted, pos)
		}
		if pos < 0 {
			return nil
		}
		if r.ErrorPos == nil || *r.ErrorPos != pos {
			return fmt.Errorf("error_pos %v, want %d", r.ErrorPos, pos)
		}
		got := slices.Clone(r.Expected)
		sort.Strings(got)
		if !slices.Equal(got, want) {
			err := fmt.Errorf("expected %v, want %v", got, want)
			if knownFault {
				err = fmt.Errorf("%w: %w", errKnownFault, err)
			}
			return err
		}
		return nil
	}
}

func identity(s string) string { return s }

// sameCount compares two optional tree counts; an absent count equals
// only another absent one.
func sameCount(a, b *int64) bool {
	return (a == nil) == (b == nil) && (a == nil || *a == *b)
}

func parseStep(name, input string, trees, render bool, check func([]byte) error) *step {
	req := newRequest("POST", "/v1/grammars/"+name+"/parse",
		jsonBody(serve.ParseRequest{Input: input, Trees: trees, Render: render}))
	return &step{req: req, check: check, probe: parseProbe(name, input, trees, render)}
}

func noAfter(transport) error { return nil }

// registerFresh registers a fresh copy of each named grammar as
// "fresh-<name>".
func registerFresh(t transport, bodies map[string][]byte) error {
	for name, body := range bodies {
		if err := callT(t, "PUT", "/v1/grammars/fresh-"+name, body, nil); err != nil {
			return err
		}
	}
	return nil
}

// ---- recognize ----

func buildRecognize(b *builder) (*plan, error) {
	ts := []target{
		{"calc-lalr", "CalcDet.bnf", "lalr"},
		{"calc-earley", "CalcDet.bnf", "earley"},
		{"calc-ll", "CalcLL.bnf", "ll"},
		{"calcsdf-glr", "Calc.sdf", "glr"},
	}
	if err := b.registerAll(ts...); err != nil {
		return nil, err
	}
	// Lengths are stratified over 3..60 tokens and the grammars take
	// turns. Every fifth input is malformed, and the damage classes take
	// turns on each grammar, so every seed draws the same mix.
	p := &plan{after: noAfter}
	for i, n := 0, b.size(480, 48); i < n; i++ {
		t := ts[i%len(ts)]
		isSDF := t.fixture == "Calc.sdf"
		ops := binOps
		if isSDF {
			ops = sdfOps
		}
		length := stratified(b.r, i, n, 3, 60)
		toks := genCalc(b.r, length, ops, 6, true)
		knownFault := false
		if i%5 == 0 {
			class := damageClass(i / 5 / len(ts) % int(damageClasses))
			for {
				bad, ok := corruptCalc(b.r, toks, ops, class)
				if ok {
					toks = bad
					break
				}
				toks = genCalc(b.r, length, ops, 6, true)
			}
			// The lalr, earley and ll backends misreport the expected
			// terminals where an operator, ")" or the end must come
			// (README.md); glr reports them exactly.
			knownFault = t.engine != "glr" && class != atOperand
		}
		input, name := strings.Join(toks, " "), identity
		if isSDF {
			input, name = calcText(b.r, toks), sdfName
		}
		p.round = append(p.round, &op{kind: t.name,
			steps: []*step{parseStep(t.name, input, false, false, checkVerdict(toks, ops, name, knownFault))}})
	}
	shuffle(b.r, p.round)
	return p, nil
}

// stratified draws the i-th of n values spread evenly over [lo, hi].
func stratified(r *rand.Rand, i, n, lo, hi int) int {
	return lo + int((float64(i)+r.Float64())*float64(hi-lo+1)/float64(n))
}

func shuffle(r *rand.Rand, ops []*op) {
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
}

// ---- trees ----

func buildTrees(b *builder) (*plan, error) {
	engines := []string{"glr", "lalr", "earley"}
	for _, eng := range engines {
		if err := b.register("sdf-"+eng, "SDF.sdf", eng); err != nil {
			return nil, err
		}
	}
	if err := b.register("calcsdf-glr", "Calc.sdf", "glr"); err != nil {
		return nil, err
	}
	p := &plan{after: noAfter}
	for _, fx := range []string{"exp.sdf", "Exam.sdf", "ASF.sdf"} {
		text := b.fixture(fx)
		leaves, nts, err := b.tokenNames("sdf-glr", text)
		if err != nil {
			return nil, err
		}
		_, defErr := sdf.ParseDefinition(text)
		counts := map[string]int64{}
		for _, eng := range engines {
			check := func(body []byte) error {
				r, err := decodeParse(body)
				if err != nil {
					return err
				}
				if r.Accepted != (defErr == nil) {
					return fmt.Errorf("%s: accepted=%v, hand-written front end says %v", fx, r.Accepted, defErr)
				}
				if r.Trees == nil {
					return fmt.Errorf("%s: no tree count", fx)
				}
				counts[eng] = *r.Trees
				for other, n := range counts {
					if n != *r.Trees {
						return fmt.Errorf("%s: %s counts %d trees, %s counts %d", fx, eng, *r.Trees, other, n)
					}
				}
				return checkLeaves(r.Forest, leaves, nts)
			}
			p.round = append(p.round, &op{kind: "sdf-" + eng,
				steps: []*step{parseStep("sdf-"+eng, text, true, true, check)}})
		}
	}
	for i, n := 0, b.size(120, 6); i < n; i++ {
		var toks []string
		for toks == nil || calcTrees(toks) > maxTrees {
			toks = genCalc(b.r, stratified(b.r, i, n, 8, 400), sdfOps, 5, true)
		}
		text := calcText(b.r, toks)
		leaves := make([]string, len(toks))
		for i, t := range toks {
			leaves[i] = sdfName(t)
		}
		want := calcTrees(toks)
		check := func(body []byte) error {
			r, err := decodeParse(body)
			if err != nil {
				return err
			}
			if !r.Accepted || r.Trees == nil || *r.Trees != want {
				return fmt.Errorf("accepted=%v trees=%v, want %d trees", r.Accepted, r.Trees, want)
			}
			return checkLeaves(r.Forest, leaves, map[string]bool{"START": true, "EXP": true})
		}
		p.round = append(p.round, &op{kind: "calcsdf-glr",
			steps: []*step{parseStep("calcsdf-glr", text, true, true, check)}})
	}
	shuffle(b.r, p.round)
	return p, nil
}

// tokenNames scans text with a registered SDF entry and returns its
// terminal names and the grammar's nonterminal names.
func (b *builder) tokenNames(entry, text string) ([]string, map[string]bool, error) {
	e, ok := b.reg.Get(entry)
	if !ok {
		return nil, nil, fmt.Errorf("no entry %s", entry)
	}
	syms, _, err := e.ScanText(text)
	if err != nil {
		return nil, nil, err
	}
	st := e.Grammar().Symbols()
	names := make([]string, len(syms))
	for i, s := range syms {
		names[i] = st.Name(s)
	}
	nts := map[string]bool{}
	for _, s := range st.Nonterminals() {
		nts[st.Name(s)] = true
	}
	return names, nts, nil
}

func checkLeaves(rendered string, want []string, nts map[string]bool) error {
	got, err := renderedLeaves(rendered, nts)
	if err != nil {
		return fmt.Errorf("rendering: %w", err)
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("rendered leaves %d do not spell the %d input tokens", len(got), len(want))
	}
	return nil
}

// ---- editor ----

// document is the client's mirror of one edited document.
type document struct {
	grammar  string   // "calc" or "sdf": entry name prefix
	texts    []string // token texts as sent
	names    []string // terminal names
	sessions []string // session ids: earley, lalr
	lanes    []*lane
	swaps    map[string][]string // terminal name -> replacement texts
}

// lane mirrors one completion cursor.
type lane struct {
	entry, id  string
	pos, valid int
	fed        []string
}

func (d *document) text(from, to int) string { return strings.Join(d.texts[from:to], " ") }

// keystroke is a like-for-like one-token splice.
type keystroke struct {
	at       int
	old, new string
}

func buildEditor(b *builder) (*plan, error) {
	for _, t := range []target{
		{"calc-lalr", "CalcDet.bnf", "lalr"}, {"calc-earley", "CalcDet.bnf", "earley"},
		{"calc-glr", "CalcDet.bnf", "glr"}, {"calc-ll", "CalcLL.bnf", "ll"},
		{"sdf-lalr", "SDF.sdf", "lalr"}, {"sdf-earley", "SDF.sdf", "earley"}, {"sdf-glr", "SDF.sdf", "glr"},
	} {
		if err := b.register(t.name, t.fixture, t.engine); err != nil {
			return nil, err
		}
	}
	var docs []*document
	for _, size := range []int{b.size(2000, 200), b.size(3500, 350)} {
		toks := genCalc(b.r, size, binOps, 8, false)
		// A Calc terminal is named by its text, so names shares texts
		// and follows every splice.
		docs = append(docs, &document{grammar: "calc", texts: toks, names: toks,
			swaps: map[string][]string{"+": {"-"}, "-": {"+"}, "*": {"/"}, "/": {"*"}}})
	}
	asf := b.fixture("ASF.sdf")
	e, _ := b.reg.Get("sdf-glr")
	syms, toks, err := e.ScanText(asf)
	if err != nil {
		return nil, err
	}
	d := &document{grammar: "sdf", swaps: map[string][]string{}}
	for i, t := range toks {
		name := e.Grammar().Symbols().Name(syms[i])
		d.texts = append(d.texts, t.Text)
		d.names = append(d.names, name)
		if (name == "ID" || name == "LITERAL") && !slices.Contains(d.swaps[name], t.Text) {
			d.swaps[name] = append(d.swaps[name], t.Text)
		}
	}
	docs = append(docs, d)

	for _, d := range docs {
		for _, eng := range []string{"earley", "lalr"} {
			var open serve.SessionOpenResponse
			if err := b.call("POST", "/v1/grammars/"+d.grammar+"-"+eng+"/sessions",
				serve.OpenSessionRequest{Input: d.text(0, len(d.texts))}, &open); err != nil {
				return nil, err
			}
			if open.Result == nil || !open.Result.Accepted {
				return nil, fmt.Errorf("%s document rejected on open", d.grammar)
			}
			d.sessions = append(d.sessions, open.Session.ID)
		}
		engines := []string{"lalr", "glr", "earley"}
		for _, eng := range engines {
			d.lanes = append(d.lanes, &lane{entry: d.grammar + "-" + eng})
		}
		if d.grammar == "calc" {
			d.lanes = append(d.lanes, &lane{entry: "calc-ll"})
		}
		for _, l := range d.lanes {
			empty := ""
			var c serve.CompleteResponse
			if err := b.call("POST", "/v1/grammars/"+l.entry+"/complete",
				serve.CompleteRequest{Prefix: &empty}, &c); err != nil {
				return nil, err
			}
			l.id = c.Cursor
		}
	}

	// The keystrokes of one round: k forward splices per document at
	// seeded carets, one in each k-th of it from start to end, then their
	// reverts in reverse order, so every round starts from the same
	// documents.
	k := b.size(24, 4)
	strokes := make([][]keystroke, len(docs))
	for i, d := range docs {
		n := len(d.texts) - 1 // the last token keeps a next token to check
		var fwd []keystroke
		for j := 0; j < k; j++ {
			at := stratified(b.r, j, k, 0, n-1)
			old := d.texts[at]
			repl := old
			if alts := d.swaps[d.names[at]]; len(alts) > 0 {
				repl = alts[b.r.IntN(len(alts))]
			}
			fwd = append(fwd, keystroke{at, old, repl})
			d.texts[at] = repl // later strokes see the edited text
		}
		for j := k - 1; j >= 0; j-- {
			d.texts[fwd[j].at] = fwd[j].old
		}
		rev := make([]keystroke, k)
		for j := range fwd {
			rev[k-1-j] = keystroke{fwd[j].at, fwd[j].new, fwd[j].old}
		}
		strokes[i] = append(fwd, rev...)
	}

	round := func() []*op {
		var ops []*op
		for j := 0; j < 2*k; j++ {
			for i, d := range docs {
				ks := strokes[i][j]
				d.texts[ks.at] = ks.new
				for _, l := range d.lanes {
					l.valid = min(l.valid, ks.at)
				}
				for s, eng := range []string{"earley", "lalr"} {
					l := d.lanes[(2*j+s)%len(d.lanes)]
					ops = append(ops, &op{kind: d.grammar + "/" + eng,
						steps: []*step{d.patchStep(d.sessions[s], ks), d.completeStep(l, ks.at)}})
				}
			}
		}
		return ops
	}
	p := &plan{warm: round()}
	start := snapshotLanes(docs)
	p.round = round()
	if end := snapshotLanes(docs); end != start {
		return nil, fmt.Errorf("editor round does not return its cursors to their start")
	}
	fresh := map[string][]byte{
		"calc-earley": b.registerBody("CalcDet.bnf", "earley"), "calc-lalr": b.registerBody("CalcDet.bnf", "lalr"),
		"sdf-earley": b.registerBody("SDF.sdf", "earley"), "sdf-lalr": b.registerBody("SDF.sdf", "lalr"),
	}
	p.after = func(t transport) error { return editorAfter(t, docs, fresh) }
	return p, nil
}

func snapshotLanes(docs []*document) string {
	var s strings.Builder
	for _, d := range docs {
		for _, l := range d.lanes {
			fmt.Fprintf(&s, "%s %d %d %q\n", l.id, l.pos, l.valid, l.fed[:l.pos])
		}
	}
	return s.String()
}

func (d *document) patchStep(session string, ks keystroke) *step {
	body := jsonBody(serve.SessionEditRequest{Splices: []serve.SpliceOp{{At: ks.at, Remove: 1, Insert: ks.new}}})
	n := len(d.texts)
	check := func(body []byte) error {
		var r serve.SessionEditResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Result == nil || !r.Result.Accepted || r.Tokens != n {
			return fmt.Errorf("reparse after splice at %d: %s", ks.at, body)
		}
		return nil
	}
	return &step{req: newRequest("PATCH", "/v1/sessions/"+session, body), check: check,
		probe: spliceProbe(session, ks)}
}

// completeStep moves a cursor to just after the token at caret,
// restoring backwards or feeding the tokens in between forwards.
func (d *document) completeStep(l *lane, caret int) *step {
	keep := min(l.valid, l.pos, caret)
	req := serve.CompleteRequest{Cursor: l.id, Feed: d.text(keep, caret+1)}
	restore := -1
	if l.pos > keep {
		restore = keep
		req.Restore = &restore
	}
	l.fed = append(l.fed[:keep], d.texts[keep:caret+1]...)
	l.pos, l.valid = caret+1, caret+1
	next := "$"
	if caret+1 < len(d.names) {
		next = d.names[caret+1]
	}
	var want []string
	if d.grammar == "calc" {
		want = calcPrefixAccepts(d.texts, caret+1, binOps)
	}
	check := func(body []byte) error {
		var r serve.CompleteResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Pos != caret+1 || !slices.Contains(r.Accepts, next) {
			return fmt.Errorf("cursor at %d accepts %v, next token %q", r.Pos, r.Accepts, next)
		}
		if want != nil {
			got := slices.Clone(r.Accepts)
			sort.Strings(got)
			if !slices.Equal(got, want) {
				return fmt.Errorf("cursor at %d accepts %v, next token rule says %v", r.Pos, got, want)
			}
		}
		return nil
	}
	return &step{req: newRequest("POST", "/v1/grammars/"+l.entry+"/complete", jsonBody(req)), check: check,
		probe: completeProbe(l.entry, l.id, restore, req.Feed)}
}

// editorAfter compares every session with a from-scratch parse of its
// mirror document on a freshly registered entry, and every cursor with
// a one-shot query of the prefix it was fed.
func editorAfter(t transport, docs []*document, fresh map[string][]byte) error {
	if err := registerFresh(t, fresh); err != nil {
		return err
	}
	for _, d := range docs {
		for s, eng := range []string{"earley", "lalr"} {
			var tree serve.ParseResponse
			if err := callT(t, "GET", "/v1/sessions/"+d.sessions[s]+"/tree?render=1", nil, &tree); err != nil {
				return err
			}
			var fresh serve.ParseResponse
			if err := callT(t, "POST", "/v1/grammars/fresh-"+d.grammar+"-"+eng+"/parse",
				jsonBody(serve.ParseRequest{Input: d.text(0, len(d.texts)), Trees: true, Render: true}), &fresh); err != nil {
				return err
			}
			if !tree.Accepted || !fresh.Accepted || !sameCount(tree.Trees, fresh.Trees) || tree.Forest != fresh.Forest {
				return fmt.Errorf("session %s differs from a from-scratch parse of its document", d.sessions[s])
			}
		}
		for _, l := range d.lanes {
			var cur, once serve.CompleteResponse
			if err := callT(t, "POST", "/v1/grammars/"+l.entry+"/complete",
				jsonBody(serve.CompleteRequest{Cursor: l.id}), &cur); err != nil {
				return err
			}
			prefix := strings.Join(l.fed[:l.pos], " ")
			if err := callT(t, "POST", "/v1/grammars/"+l.entry+"/complete",
				jsonBody(serve.CompleteRequest{Prefix: &prefix, Once: true}), &once); err != nil {
				return err
			}
			if cur.Pos != once.Pos || !slices.Equal(cur.Accepts, once.Accepts) {
				return fmt.Errorf("cursor %s at %d accepts %v, a one-shot query of its prefix %v",
					l.id, cur.Pos, cur.Accepts, once.Accepts)
			}
		}
	}
	return nil
}

// ---- grammar-edit ----

var sortName = regexp.MustCompile(`^[A-Z][A-Z-]*$`)

func buildGrammarEdit(b *builder) (*plan, error) {
	ts := []target{
		{"sdf-glr", "SDF.sdf", "glr"}, {"sdf-lalr", "SDF.sdf", "lalr"}, {"sdf-earley", "SDF.sdf", "earley"},
		{"calc-lalr", "CalcDet.bnf", "lalr"}, {"calc-ll", "CalcLL.bnf", "ll"},
	}
	if err := b.registerAll(ts...); err != nil {
		return nil, err
	}
	e, _ := b.reg.Get("sdf-glr")
	st := e.Grammar().Symbols()
	var sorts []string
	for _, s := range st.Nonterminals() {
		if n := st.Name(s); sortName.MatchString(n) && n != "START" && n != "SDF-DEFINITION" {
			sorts = append(sorts, n)
		}
	}
	small := b.fixture("exp.sdf")
	if _, err := sdf.ParseDefinition(small); err != nil {
		return nil, fmt.Errorf("exp.sdf: %w", err)
	}
	var base serve.ParseResponse
	if err := b.call("POST", "/v1/grammars/sdf-glr/parse", serve.ParseRequest{Input: small, Trees: true}, &base); err != nil {
		return nil, err
	}
	if !base.Accepted || base.Trees == nil {
		return nil, fmt.Errorf("exp.sdf rejected before any rule update")
	}
	baseTrees := *base.Trees

	// Every round adds and deletes one rule per SDF sort on each SDF
	// entry, in a seeded order, each over its own fresh terminal; the
	// Calc entries get as many updates of F, and calc-ll twice as many.
	// Its updates are the cheapest, so the doubling puts the median
	// operation inside the cluster of the glr and earley SDF updates
	// instead of in the gap above it, where it would move with any
	// small change of either side. A group of updates is added, then
	// deleted; no entry has two updates in one group.
	b.r.Shuffle(len(sorts), func(i, j int) { sorts[i], sorts[j] = sorts[j], sorts[i] })
	type update struct {
		t           target
		rule, input string
		check       [2]func([]byte) error // after add, after delete
	}
	pool := b.size(len(sorts), 2)
	sentences := map[string][]calcSentence{} // by Calc entry
	var groups [][]update
	for k := 0; k < pool; k++ {
		for g, group := range [][]target{ts, ts[len(ts)-1:]} {
			groups = append(groups, nil)
			for _, t := range group {
				u := update{t: t}
				if strings.HasPrefix(t.name, "sdf-") {
					u.rule = fmt.Sprintf(`%s ::= "zq%c"`, sorts[k], 'a'+k)
					u.input = small
					unchanged := func(body []byte) error {
						r, err := decodeParse(body)
						if err != nil {
							return err
						}
						if !r.Accepted || r.Trees == nil || *r.Trees != baseTrees {
							return fmt.Errorf("exp.sdf: accepted=%v trees=%v, want %d trees as before the update",
								r.Accepted, r.Trees, baseTrees)
						}
						return nil
					}
					u.check = [2]func([]byte) error{unchanged, unchanged}
				} else {
					fresh := fmt.Sprintf("z%d", k+g*pool)
					u.rule = fmt.Sprintf(`F ::= "%s"`, fresh)
					cs := newCalcSentence(b.r, fresh)
					// The Calc entries of one group share the fresh terminal,
					// so each is checked on both after the run.
					for _, other := range group {
						if !strings.HasPrefix(other.name, "sdf-") {
							sentences[other.name] = append(sentences[other.name], cs)
						}
					}
					u.input = strings.Join(cs.toks, " ")
					u.check = [2]func([]byte) error{cs.acceptedOnce, cs.rejectedAtFresh}
				}
				groups[len(groups)-1] = append(groups[len(groups)-1], u)
			}
		}
	}
	p := &plan{}
	for _, group := range groups {
		for half, verb := range []string{"add", "delete"} {
			for _, u := range group {
				t := u.t
				rr := serve.RulesRequest{Add: u.rule}
				if half == 1 {
					rr = serve.RulesRequest{Delete: u.rule}
				}
				rules := &step{req: newRequest("POST", "/v1/grammars/"+t.name+"/rules", jsonBody(rr)),
					check: checkRules(half), probe: rulesProbe(t.name, u.rule, half == 0)}
				p.round = append(p.round, &op{kind: t.name + "/" + verb,
					steps: []*step{rules, parseStep(t.name, u.input, true, false, u.check[half])}})
			}
		}
	}
	fresh := map[string][]byte{}
	for _, t := range ts {
		fresh[t.name] = b.registerBody(t.fixture, t.engine)
	}
	p.after = func(tr transport) error {
		if err := registerFresh(tr, fresh); err != nil {
			return err
		}
		return grammarEditAfter(tr, ts, small, sentences)
	}
	return p, nil
}

func checkRules(half int) func([]byte) error {
	return func(body []byte) error {
		var r serve.RulesResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Error != "" || (half == 0 && r.Added != 1) || (half == 1 && r.Deleted != 1) {
			return fmt.Errorf("rule update: %s", body)
		}
		return nil
	}
}

// calcSentence is a small valid Calc sentence with one operand replaced
// by a fresh terminal.
type calcSentence struct {
	toks  []string
	fresh int // index of the fresh terminal
}

func newCalcSentence(r *rand.Rand, fresh string) calcSentence {
	toks := genCalc(r, 5+r.IntN(11), binOps, 4, false)
	var operands []int
	for i, t := range toks {
		if t == "n" {
			operands = append(operands, i)
		}
	}
	at := operands[r.IntN(len(operands))]
	toks[at] = fresh
	return calcSentence{toks: toks, fresh: at}
}

func (cs calcSentence) acceptedOnce(body []byte) error {
	r, err := decodeParse(body)
	if err != nil {
		return err
	}
	if !r.Accepted || r.Trees == nil || *r.Trees != 1 {
		return fmt.Errorf("%q after the add: accepted=%v trees=%v, want one tree", cs.toks, r.Accepted, r.Trees)
	}
	return nil
}

func (cs calcSentence) rejectedAtFresh(body []byte) error {
	r, err := decodeParse(body)
	if err != nil {
		return err
	}
	want := calcPrefixAccepts(cs.toks, cs.fresh, binOps)
	got := slices.Clone(r.Expected)
	sort.Strings(got)
	if r.Accepted || r.ErrorPos == nil || *r.ErrorPos != cs.fresh || !slices.Equal(got, want) {
		return fmt.Errorf("%q after the delete: accepted=%v error_pos=%v expected=%v, want rejection at %d expecting %v",
			cs.toks, r.Accepted, r.ErrorPos, got, cs.fresh, want)
	}
	return nil
}

// grammarEditAfter compares every entry with a freshly registered copy
// of its final grammar on the workload's inputs.
func grammarEditAfter(t transport, ts []target, small string, sentences map[string][]calcSentence) error {
	for _, tg := range ts {
		var inputs []string
		if strings.HasPrefix(tg.name, "sdf-") {
			inputs = []string{small}
		} else {
			for _, cs := range sentences[tg.name] {
				valid := slices.Clone(cs.toks)
				valid[cs.fresh] = "n"
				inputs = append(inputs, strings.Join(valid, " "))
			}
		}
		for _, in := range inputs {
			var live, fresh serve.ParseResponse
			body := jsonBody(serve.ParseRequest{Input: in, Trees: true, Render: true})
			if err := callT(t, "POST", "/v1/grammars/"+tg.name+"/parse", body, &live); err != nil {
				return err
			}
			if err := callT(t, "POST", "/v1/grammars/fresh-"+tg.name+"/parse", body, &fresh); err != nil {
				return err
			}
			if live.Accepted != fresh.Accepted || !sameCount(live.Trees, fresh.Trees) || live.Forest != fresh.Forest {
				return fmt.Errorf("%s after the run differs from a fresh copy of its grammar on %.60q", tg.name, in)
			}
		}
		if strings.HasPrefix(tg.name, "sdf-") {
			continue
		}
		for _, cs := range sentences[tg.name] {
			var live serve.ParseResponse
			body := jsonBody(serve.ParseRequest{Input: strings.Join(cs.toks, " "), Trees: true})
			if err := callT(t, "POST", "/v1/grammars/"+tg.name+"/parse", body, &live); err != nil {
				return err
			}
			if live.Accepted || live.ErrorPos == nil || *live.ErrorPos != cs.fresh {
				return fmt.Errorf("%s after the run accepts %q with a deleted terminal", tg.name, cs.toks)
			}
		}
	}
	return nil
}
