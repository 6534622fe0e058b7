package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"ipg/internal/core"
	"ipg/internal/engine"
	"ipg/internal/forest"
	"ipg/internal/grammar"
	"ipg/internal/priority"
	"ipg/internal/registry"
	"ipg/internal/sdf"
	"ipg/internal/serve"
)

// The traced run replays the timed phase's operations and, after each,
// calls into every layer's public functions on mirrors of the service
// state: mirror A answers the same HTTP requests in memory (no socket),
// and mirror B receives the same edits through direct registry calls,
// so no splice, feed or rule update is applied twice to one state.

var engineNames = []string{"glr", "lalr", "ll", "earley"}

// perLayer lists every per-layer metric with its unit, in report order.
func perLayer() [][2]string {
	m := [][2]string{
		{"serve.transport_us", "us"}, {"serve.handler_us", "us"}, {"serve.self_us", "us"},
		{"serve.codec_us", "us"}, {"serve.allocs", "count"},
		{"scan.tokenize_us", "us"}, {"scan.ns_per_byte", "ns/B"},
		{"registry.parse_us", "us"}, {"registry.self_us", "us"}, {"registry.allocs", "count"},
	}
	for _, e := range engineNames {
		m = append(m, [2]string{"engine.recognize_us." + e, "us"}, [2]string{"engine.ns_per_token." + e, "ns/token"},
			[2]string{"engine.allocs." + e, "count"})
	}
	m = append(m,
		[2]string{"forest.build_us", "us"}, [2]string{"forest.build_allocs", "count"}, [2]string{"forest.nodes", "count"},
		[2]string{"forest.count_us", "us"}, [2]string{"forest.render_us", "us"}, [2]string{"priority.filter_us", "us"},
		[2]string{"session.splice_us", "us"}, [2]string{"session.reparse_us.earley", "us"},
		[2]string{"session.reparse_us.lalr", "us"}, [2]string{"session.sets_reused_ratio", "ratio"},
		[2]string{"session.full_reparses", "count"})
	for _, e := range engineNames {
		m = append(m, [2]string{"complete.apply_us." + e, "us"})
	}
	m = append(m, [2]string{"complete.accepts", "count"})
	for _, e := range engineNames {
		m = append(m, [2]string{"table.update_us." + e, "us"}, [2]string{"table.first_parse_extra_us." + e, "us"})
	}
	return append(m,
		[2]string{"table.states_expanded", "count"}, [2]string{"table.states_invalidated", "count"},
		[2]string{"table.states_repaired", "count"}, [2]string{"table.repair_fallbacks", "count"},
		[2]string{"table.cache_hit_ratio", "ratio"},
		[2]string{"runtime.gc_per_kop", "count"}, [2]string{"runtime.heap_peak_mb", "MB"},
		[2]string{"trace.overhead_us", "us"})
}

// span is one timed call into a layer. reg marks the registry-level
// call a request's handler makes, which serve's self time excludes.
type span struct {
	name       string
	start, end int64 // nanoseconds since the tracer's epoch
	parent     int32
	op         int32
	allocs     int64 // heap objects allocated inside, -1 when not counted
	reg        bool
}

// tracer keeps every span in memory until the run ends, plus counts
// taken at the same boundaries.
type tracer struct {
	epoch  time.Time
	spans  []span
	op     int32
	opSpan int32
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16), counts: map[string]float64{}}
}

// beginOp records an operation's loopback span, which parents the
// layer spans its probes record.
func (t *tracer) beginOp(lat time.Duration) {
	t.op++
	now := time.Since(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{name: "op", start: now - lat.Nanoseconds(), end: now, parent: -1, op: t.op, allocs: -1})
	t.opSpan = int32(len(t.spans) - 1)
}

// call times f as a span; with allocs set, the heap objects f allocates
// are counted too (the counting itself stays outside the span).
func (t *tracer) call(name string, reg, allocs bool, f func()) (time.Duration, float64) {
	var m0, m1 runtime.MemStats
	if allocs {
		runtime.ReadMemStats(&m0)
	}
	start := time.Since(t.epoch).Nanoseconds()
	f()
	end := time.Since(t.epoch).Nanoseconds()
	n := int64(-1)
	if allocs {
		runtime.ReadMemStats(&m1)
		n = int64(m1.Mallocs - m0.Mallocs)
	}
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: t.opSpan, op: t.op, allocs: n, reg: reg})
	return time.Duration(end - start), float64(n)
}

func (t *tracer) count(name string, v float64) { t.counts[name] += v }

// prober drives the mirrors for one operation's steps.
type prober struct {
	tr   *tracer
	a    *inMemory
	reg  *registry.Registry // mirror B
	root string
	rels map[string]*priority.Relation
	// updated marks that the last step changed the grammar: the next
	// parse is the first after the update.
	updated bool
	set     engine.TermSet
}

func (p *prober) entry(name string) (*registry.Entry, string, error) {
	e, ok := p.reg.Get(name)
	if !ok {
		return nil, "", fmt.Errorf("mirror has no grammar %s", name)
	}
	return e, e.EngineKind().String(), nil
}

// relation returns the priority filters of an SDF entry's grammar,
// converted independently from its fixture (rule keys are stable across
// conversions of one source).
func (p *prober) relation(name string) *priority.Relation {
	if rel, ok := p.rels[name]; ok {
		return rel
	}
	var rel *priority.Relation
	if strings.HasPrefix(name, "calcsdf-") {
		if src, err := os.ReadFile(filepath.Join(p.root, "testdata", "Calc.sdf")); err == nil {
			if def, err := sdf.ParseDefinition(string(src)); err == nil {
				if conv, err := sdf.Convert(def, ""); err == nil {
					rel = conv.Relation
				}
			}
		}
	}
	p.rels[name] = rel
	return rel
}

// handler replays a step on mirror A and times its codec work.
func (p *prober) handler(s *step) error {
	var status int
	var body []byte
	var err error
	p.tr.call("serve.handler", false, true, func() { status, body, err = p.a.do(s.req) })
	if err != nil {
		return err
	}
	if status != s.status || !sameReply(body, s.want) {
		return fmt.Errorf("mirror answered %d %.200s", status, body)
	}
	codec := codecOf(s)
	p.tr.call("serve.codec", false, false, codec)
	return nil
}

// codecOf decodes the step's request into its exported type and encodes
// its reference reply from the exported response type.
func codecOf(s *step) func() {
	switch {
	case strings.HasSuffix(s.req.path, "/parse"):
		return codec[serve.ParseRequest, serve.ParseResponse](s)
	case strings.HasSuffix(s.req.path, "/complete"):
		return codec[serve.CompleteRequest, serve.CompleteResponse](s)
	case strings.HasSuffix(s.req.path, "/rules"):
		return codec[serve.RulesRequest, serve.RulesResponse](s)
	default:
		return codec[serve.SessionEditRequest, serve.SessionEditResponse](s)
	}
}

func codec[Req, Resp any](s *step) func() {
	var resp Resp
	json.Unmarshal(s.want, &resp)
	return func() {
		var req Req
		json.Unmarshal(s.req.body, &req)
		json.Marshal(&resp)
	}
}

// parseProbe times a parse layer by layer: the registry call, then its
// parts — tokenization, recognition, forest construction, filtering,
// counting and rendering — called one by one.
func parseProbe(name, input string, trees, render bool) func(p *prober) error {
	return func(p *prober) error {
		e, eng, err := p.entry(name)
		if err != nil {
			return err
		}
		var res registry.Result
		var regDur time.Duration
		if p.updated {
			p.updated = false
			first, _ := p.tr.call("table.first_parse."+eng, true, false, func() { res, err = e.ParseInput(input, trees) })
			regDur, _ = p.tr.call("registry.parse", false, true, func() { res, err = e.ParseInput(input, trees) })
			p.tr.count("table.first_parse_extra_ns."+eng, float64(first-regDur))
		} else {
			regDur, _ = p.tr.call("registry.parse", true, true, func() { res, err = e.ParseInput(input, trees) })
		}
		if err != nil {
			return err
		}
		var toks []grammar.Symbol
		tokDur, _ := p.tr.call("scan.tokenize", false, false, func() { toks, err = e.InputTokens(input) })
		if err != nil {
			return err
		}
		p.tr.count("scan.bytes", float64(len(input)))
		var rec engine.Result
		recDur, recAllocs := p.tr.call("engine.recognize."+eng, false, true, func() { rec, err = e.Engine().Parse(toks, false) })
		if err != nil {
			return err
		}
		p.tr.count("engine.tokens."+eng, float64(len(toks)-1))
		if !trees {
			if rec.Accepted != res.Accepted {
				return fmt.Errorf("engine and registry disagree on %s", name)
			}
			p.tr.count("registry.self_ns", float64(regDur-tokDur-recDur))
			return nil
		}
		var full engine.Result
		treesDur, treesAllocs := p.tr.call("engine.trees", false, true, func() { full, err = e.Engine().Parse(toks, true) })
		if err != nil {
			return err
		}
		p.tr.count("forest.build_ns", float64(treesDur-recDur))
		p.tr.count("forest.build_allocs", treesAllocs-recAllocs)
		if full.Forest != nil {
			p.tr.count("forest.nodes", float64(full.Forest.NodeCount()))
		}
		root := full.Root
		var filterDur, countDur time.Duration
		if rel := p.relation(name); rel != nil && root != nil {
			filterDur, _ = p.tr.call("priority.filter", false, false, func() { root, err = rel.Filter(full.Forest, root) })
			if err != nil {
				return err
			}
		}
		if root != nil {
			var n int64
			countDur, _ = p.tr.call("forest.count", false, false, func() { n, err = forest.TreeCount(root) })
			if err == nil && res.TreesKnown && n != res.Trees {
				return fmt.Errorf("%s: layer-by-layer count %d, registry %d", name, n, res.Trees)
			}
			if render {
				syms := e.Grammar().Symbols()
				p.tr.call("forest.render", true, false, func() { _ = forest.String(root, syms) })
			}
		}
		p.tr.count("registry.self_ns", float64(regDur-tokDur-treesDur-filterDur-countDur))
		return nil
	}
}

func spliceProbe(id string, ks keystroke) func(p *prober) error {
	return func(p *prober) error {
		sess, ok := p.reg.Session(id)
		if !ok {
			return fmt.Errorf("mirror has no session %s", id)
		}
		var err error
		p.tr.call("session.splice", true, false, func() { err = sess.Splice(ks.at, 1, ks.new, nil) })
		if err != nil {
			return err
		}
		before := sess.Stat().FullReparses
		var res registry.Result
		p.tr.call("session.reparse."+sess.EngineName(), true, true, func() { res, err = sess.Reparse(nil) })
		if err != nil || !res.Accepted {
			return fmt.Errorf("mirror session %s: accepted=%v err=%v", id, res.Accepted, err)
		}
		st := sess.Stat()
		p.tr.count("session.full_reparses", float64(st.FullReparses-before))
		p.tr.count("session.reused", float64(st.LastReused))
		p.tr.count("session.rebuilt", float64(st.LastRebuilt))
		return nil
	}
}

func completeProbe(entry, id string, restore int, feed string) func(p *prober) error {
	return func(p *prober) error {
		cs, ok := p.reg.Completion(id)
		if !ok {
			return fmt.Errorf("mirror has no cursor %s", id)
		}
		_, eng, err := p.entry(entry)
		if err != nil {
			return err
		}
		var toks []grammar.Symbol
		p.tr.call("scan.tokenize", true, false, func() { toks, err = cs.FeedTokens(feed) })
		if err != nil {
			return err
		}
		p.tr.count("scan.bytes", float64(len(feed)))
		p.tr.call("complete.apply."+eng, true, false, func() { _, err = cs.Apply(restore, toks, &p.set, nil) })
		if err != nil {
			return err
		}
		p.tr.count("complete.accepts", float64(p.set.Count()))
		p.tr.count("complete.applies", 1)
		return nil
	}
}

func rulesProbe(name, rule string, add bool) func(p *prober) error {
	return func(p *prober) error {
		e, eng, err := p.entry(name)
		if err != nil {
			return err
		}
		p.tr.call("table.update."+eng, true, false, func() {
			if add {
				_, err = e.AddRulesText(rule)
			} else {
				_, err = e.DeleteRulesText(rule)
			}
		})
		p.updated = true
		return err
	}
}

// mirror builds the workload's state on a service reached in memory.
func mirror(cfg config, wl workload, main *plan) (*service, *plan, error) {
	svc := newService(cfg.log)
	pl, err := buildPlan(cfg, wl, svc.mem, svc.reg)
	if err != nil {
		return nil, nil, err
	}
	if len(pl.round) != len(main.round) {
		return nil, nil, fmt.Errorf("mirror round has %d operations, main %d", len(pl.round), len(main.round))
	}
	for i, o := range pl.round {
		for j, s := range o.steps {
			if !bytes.Equal(s.req.wire, main.round[i].steps[j].req.wire) {
				return nil, nil, fmt.Errorf("mirror request %s differs from the main one", s.req.path)
			}
		}
	}
	if err := runOps(svc.mem, pl.warm, false); err != nil {
		return nil, nil, err
	}
	if err := runOps(svc.mem, pl.round, false); err != nil {
		return nil, nil, err
	}
	return svc, pl, nil
}

// sumCounters adds the table counters of every entry; the action and
// cache-hit counts come from the lazy (glr) tables alone.
func sumCounters(reg *registry.Registry) core.Counters {
	var c core.Counters
	for _, e := range reg.Entries() {
		ec := e.Counters()
		if e.EngineKind() != engine.KindGLR {
			ec.ActionCalls, ec.CacheHits = 0, 0
		}
		c = c.Plus(ec)
	}
	return c
}

func runTraced(cfg config, wl workload, w io.Writer) (result, error) {
	inst, err := startInstance(cfg, wl)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	correct := true
	if err := inst.checkReference(w); err != nil {
		fmt.Fprintln(w, "perfbench: warm-up answers failed their checks:", err)
		correct = false
	}
	residual := inst.residualAllocs()
	svcA, _, err := mirror(cfg, wl, inst.plan)
	if err != nil {
		return result{}, err
	}
	svcB, planB, err := mirror(cfg, wl, inst.plan)
	if err != nil {
		return result{}, err
	}
	defer svcA.close()
	defer svcB.close()

	// Untraced phase: the baseline for the tracing overhead, and the
	// table and runtime counters with nothing else running.
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	var ms0, ms1 runtime.MemStats
	c0 := sumCounters(inst.svc.reg)
	runtime.ReadMemStats(&ms0)
	base := inst.timed(cfg.run/3, func(*op, time.Duration) error {
		metrics.Read(heap)
		peak = max(peak, heap[0].Value.Uint64())
		return nil
	})
	runtime.ReadMemStats(&ms1)
	c1 := sumCounters(inst.svc.reg)

	tr := newTracer()
	p := &prober{tr: tr, a: svcA.mem, reg: svcB.reg, root: cfg.root, rels: map[string]*priority.Relation{}}
	byOp := map[*op]*op{}
	for i, o := range inst.plan.round {
		byOp[o] = planB.round[i]
	}
	var probeErr error
	var tracedWall time.Duration
	traced := inst.timed(cfg.run*2/3, func(o *op, lat time.Duration) error {
		t0 := time.Now()
		tr.beginOp(lat)
		for i, s := range o.steps {
			if err := p.handler(s); err != nil {
				probeErr = fmt.Errorf("%s: %w", o.kind, err)
				return probeErr
			}
			if err := byOp[o].steps[i].probe(p); err != nil {
				probeErr = fmt.Errorf("%s: %w", o.kind, err)
				return probeErr
			}
		}
		tracedWall += lat + time.Since(t0)
		return nil
	})
	correct = correct && probeErr == nil
	if err := inst.plan.after(inst.main); err != nil {
		fmt.Fprintln(w, "perfbench: after-run check failed:", err)
		correct = false
	}
	nBase := float64(base.lat.n)
	// Transport is what the loopback path adds to the in-memory handler:
	// the untraced latency per request minus the handler time.
	m := layerMetrics(tr, traced.lat.n, base.lat.meanUS())
	m["table.states_expanded"] = float64(c1.StatesExpanded-c0.StatesExpanded) / nBase
	m["table.states_invalidated"] = float64(c1.StatesInvalidated-c0.StatesInvalidated) / nBase
	m["table.states_repaired"] = float64(c1.StatesRepaired-c0.StatesRepaired) / nBase
	m["table.repair_fallbacks"] = float64(c1.RepairFallbacks-c0.RepairFallbacks) / nBase
	if calls := c1.ActionCalls - c0.ActionCalls; calls > 0 {
		m["table.cache_hit_ratio"] = float64(c1.CacheHits-c0.CacheHits) / float64(calls)
	}
	m["runtime.gc_per_kop"] = float64(ms1.NumGC-ms0.NumGC) * 1000 / nBase
	m["runtime.heap_peak_mb"] = float64(peak) / (1 << 20)
	if n := traced.lat.n; n > 0 {
		m["trace.overhead_us"] = tracedWall.Seconds()*1e6/float64(n) - base.lat.meanUS()
	}
	out := map[string]metric{}
	for _, nu := range perLayer() {
		out[nu[0]] = metric{m[nu[0]], nu[1]}
	}
	attempted := base.lat.n + traced.lat.n
	fmt.Fprintf(w, "perfbench: traced attempted=%d failed=%d known_fault=%d spans=%d residual_allocs_per_op=%.3f\n",
		attempted, base.failed+traced.failed, base.known+traced.known, len(tr.spans), residual)
	if probeErr != nil {
		fmt.Fprintln(w, "perfbench: probe failed:", probeErr)
	}
	return result{Correct: correct, Attempted: attempted, Failed: base.failed + traced.failed,
		Metrics: out, known: base.known + traced.known}, nil
}

// layerMetrics aggregates the spans and counts of ops traced operations;
// baseUS is the untraced mean latency of an operation.
func layerMetrics(tr *tracer, ops int, baseUS float64) map[string]float64 {
	type agg struct{ ns, n, allocs, counted float64 }
	by := map[string]*agg{}
	var handlerNS, regNS, codecNS, renderNS float64
	var requests float64
	for _, s := range tr.spans {
		d := float64(s.end - s.start)
		switch {
		case s.name == "op":
			continue
		case s.name == "serve.handler":
			handlerNS += d
			requests++
		case s.name == "serve.codec":
			codecNS += d
		case s.name == "forest.render":
			renderNS += d
		}
		if s.reg && s.name != "forest.render" {
			regNS += d
		}
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
		}
		a.ns += d
		a.n++
		if s.allocs >= 0 {
			a.allocs += float64(s.allocs)
			a.counted++
		}
	}
	mean := func(name string) float64 {
		if a := by[name]; a != nil && a.n > 0 {
			return a.ns / a.n / 1e3
		}
		return 0
	}
	allocs := func(name string) float64 {
		if a := by[name]; a != nil && a.counted > 0 {
			return a.allocs / a.counted
		}
		return 0
	}
	calls := func(name string) float64 {
		if a := by[name]; a != nil {
			return a.n
		}
		return 0
	}
	m := map[string]float64{}
	if requests > 0 {
		m["serve.transport_us"] = (baseUS*float64(ops) - handlerNS/1e3) / requests
		m["serve.handler_us"] = handlerNS / requests / 1e3
		m["serve.self_us"] = (handlerNS - regNS - codecNS - renderNS) / requests / 1e3
		m["serve.codec_us"] = codecNS / requests / 1e3
	}
	m["serve.allocs"] = allocs("serve.handler")
	m["scan.tokenize_us"] = mean("scan.tokenize")
	if b := tr.counts["scan.bytes"]; b > 0 {
		m["scan.ns_per_byte"] = by["scan.tokenize"].ns / b
	}
	m["registry.parse_us"] = mean("registry.parse")
	m["registry.allocs"] = allocs("registry.parse")
	for _, e := range engineNames {
		rec := "engine.recognize." + e
		m["engine.recognize_us."+e] = mean(rec)
		m["engine.allocs."+e] = allocs(rec)
		if t := tr.counts["engine.tokens."+e]; t > 0 {
			m["engine.ns_per_token."+e] = by[rec].ns / t
		}
		m["session.reparse_us."+e] = mean("session.reparse." + e)
		m["complete.apply_us."+e] = mean("complete.apply." + e)
		m["table.update_us."+e] = mean("table.update." + e)
		if n := calls("table.update." + e); n > 0 {
			m["table.first_parse_extra_us."+e] = tr.counts["table.first_parse_extra_ns."+e] / n / 1e3
		}
	}
	if n := calls("registry.parse"); n > 0 {
		m["registry.self_us"] = tr.counts["registry.self_ns"] / n / 1e3
	}
	if n := calls("engine.trees"); n > 0 {
		m["forest.build_us"] = tr.counts["forest.build_ns"] / n / 1e3
		m["forest.build_allocs"] = tr.counts["forest.build_allocs"] / n
	}
	m["forest.nodes"] = tr.counts["forest.nodes"] / float64(max(ops, 1))
	m["forest.count_us"] = mean("forest.count")
	m["forest.render_us"] = mean("forest.render")
	m["priority.filter_us"] = mean("priority.filter")
	m["session.splice_us"] = mean("session.splice")
	if r := tr.counts["session.reused"] + tr.counts["session.rebuilt"]; r > 0 {
		m["session.sets_reused_ratio"] = tr.counts["session.reused"] / r
	}
	m["session.full_reparses"] = tr.counts["session.full_reparses"] / float64(max(ops, 1))
	if n := tr.counts["complete.applies"]; n > 0 {
		m["complete.accepts"] = tr.counts["complete.accepts"] / n
	}
	return m
}
