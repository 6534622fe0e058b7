package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ipg/internal/registry"
	"ipg/internal/serve"
)

// workload builds the service state for one client workload and the
// round of operations the timed phase repeats. README.md says why each
// workload is there.
type workload func(b *builder) (*plan, error)

var workloads = map[string]workload{
	"recognize":    buildRecognize,
	"trees":        buildTrees,
	"editor":       buildEditor,
	"grammar-edit": buildGrammarEdit,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// step is one request of an operation with its reference answer. check
// verifies that answer against a computation made apart from the
// program; every later answer must then equal it, timings and version
// counters aside. probe replays the step on the traced run's direct
// mirror, timing each layer.
type step struct {
	req    *request
	check  func(body []byte) error
	want   []byte
	status int
	probe  func(p *prober) error
}

// op is one operation: the unit of latency, throughput and failure.
// fault holds the first failed check of its reference answers; such an
// operation fails on every attempt.
type op struct {
	kind  string
	steps []*step
	fault error
}

type plan struct {
	// warm runs once during set-up before the round, which also runs
	// once: together they pay every lazy expansion the timed phase
	// would otherwise see first.
	warm  []*op
	round []*op
	// after checks the service state once the timed phase is over.
	after func(t transport) error
}

// builder gives a workload's build function its service and inputs.
type builder struct {
	cfg config
	t   transport
	reg *registry.Registry
	r   *rand.Rand
}

func (b *builder) fixture(name string) string {
	src, err := os.ReadFile(filepath.Join(b.cfg.root, "testdata", name))
	if err != nil {
		panic(err) // the fixture directory was checked at start-up
	}
	return string(src)
}

// call sends a set-up request and decodes its 2xx reply into out.
func (b *builder) call(method, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return callT(b.t, method, path, body, out)
}

func callT(t transport, method, path string, body []byte, out any) error {
	status, reply, err := t.do(newRequest(method, path, body))
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, reply)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(reply, out)
}

// register puts a grammar fixture under name on the given engine.
func (b *builder) register(name, fixture, engine string) error {
	return callT(b.t, "PUT", "/v1/grammars/"+name, b.registerBody(fixture, engine), nil)
}

func (b *builder) registerBody(fixture, engine string) []byte {
	form := "rules"
	if filepath.Ext(fixture) == ".sdf" {
		form = "sdf"
	}
	return jsonBody(serve.RegisterRequest{Source: b.fixture(fixture), Form: form, Engine: engine})
}

func jsonBody(v any) []byte {
	out, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return out
}

// service is one parse service: a registry configured as ipg-serve is
// by default (tracing off, info logging, default session and cursor
// limits) behind the serve front end.
type service struct {
	reg   *registry.Registry
	front *serve.Server
	mem   *inMemory
}

func newService(log *slog.Logger) *service {
	reg := registry.New()
	reg.SetLogger(log)
	reg.SetSessionLimits(registry.SessionLimits{MaxSessions: 256, MaxDocTokens: 1 << 20, IdleTimeout: 10 * time.Minute})
	reg.SetCompletionLimits(registry.CompletionLimits{MaxCursors: 1024, MaxPrefixTokens: 1 << 16, IdleTimeout: 5 * time.Minute})
	reg.SetBreakerConfig(registry.BreakerConfig{Threshold: 3, Cooldown: 10 * time.Second})
	reg.SetSnapshotRetry(2, 100*time.Millisecond)
	front := serve.New(reg)
	front.SetLogger(log)
	front.MarkReady()
	return &service{reg: reg, front: front, mem: &inMemory{h: front.Handler()}}
}

// close ends the service's sessions and cursors.
func (s *service) close() {
	s.reg.CloseAllSessions()
	s.reg.CloseAllCompletions()
}

// instance is a service behind a loopback listener with the workload's
// state built and warmed.
type instance struct {
	svc  *service
	hs   *http.Server
	done chan struct{}
	main *conn
	plan *plan
}

func startInstance(cfg config, wl workload) (*instance, error) {
	svc := newService(cfg.log)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in := &instance{svc: svc, done: make(chan struct{}),
		hs: &http.Server{Handler: svc.front.Handler(), ReadHeaderTimeout: 10 * time.Second,
			MaxHeaderBytes: 1 << 20, ErrorLog: log.New(io.Discard, "", 0)}}
	go func() {
		defer close(in.done)
		_ = in.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	if in.main, err = dial(ln.Addr().String()); err != nil {
		in.close()
		return nil, err
	}
	if in.plan, err = buildPlan(cfg, wl, in.main, svc.reg); err != nil {
		in.close()
		return nil, err
	}
	if err := runOps(in.main, in.plan.warm, true); err != nil {
		in.close()
		return nil, err
	}
	if err := runOps(in.main, in.plan.round, true); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func buildPlan(cfg config, wl workload, t transport, reg *registry.Registry) (*plan, error) {
	b := &builder{cfg: cfg, t: t, reg: reg, r: rand.New(rand.NewPCG(cfg.seed, 0x9e3779b97f4a7c15))}
	return wl(b)
}

// runOps sends every step once; with record set it keeps each answer
// as the step's reference.
func runOps(t transport, ops []*op, record bool) error {
	for _, o := range ops {
		for _, s := range o.steps {
			status, body, err := t.do(s.req)
			if err != nil {
				return fmt.Errorf("%s %s: %w", s.req.method, s.req.path, err)
			}
			if record {
				s.status, s.want = status, bytes.Clone(body)
			}
		}
	}
	return nil
}

// checkReference verifies every recorded answer independently. A round
// operation whose answer fails keeps the failure as its fault and
// counts as failed on every attempt; a failed warm-up answer is an
// error.
func (in *instance) checkReference(w io.Writer) error {
	var errs []error
	faults := 0
	for phase, ops := range [][]*op{in.plan.warm, in.plan.round} {
		for _, o := range ops {
			for _, s := range o.steps {
				err := error(nil)
				if s.status/100 != 2 {
					err = fmt.Errorf("status %d: %s", s.status, s.want)
				} else if s.check != nil {
					err = s.check(s.want)
				}
				if err == nil {
					continue
				}
				err = fmt.Errorf("%s %s %s: %w", o.kind, s.req.method, s.req.path, err)
				if phase == 0 {
					errs = append(errs, err)
					break
				}
				if faults++; faults <= 3 {
					fmt.Fprintln(w, "perfbench: failed check:", err)
				}
				o.fault = err
				break
			}
		}
	}
	if faults > 3 {
		fmt.Fprintf(w, "perfbench: and %d more operations failed their checks\n", faults-3)
	}
	if len(errs) > 3 {
		errs = append(errs[:3], fmt.Errorf("and %d more", len(errs)-3))
	}
	return errors.Join(errs...)
}

func (in *instance) close() {
	if in.main != nil {
		in.main.close()
	}
	in.hs.Close()
	<-in.done
	in.svc.close()
}

// runStats is what the timed phase measured.
type runStats struct {
	lat     *hist
	kinds   map[string]*hist // by operation kind
	failed  int
	known   int // failed operations whose fault is errKnownFault
	rounds  int
	elapsed time.Duration
	mallocs uint64
	bytes   uint64
}

func newRunStats() runStats { return runStats{lat: &hist{}, kinds: map[string]*hist{}} }

// timed repeats whole rounds over the loopback connection until d has
// passed. hook, when set, runs after each operation outside its timing.
func (in *instance) timed(d time.Duration, hook func(o *op, lat time.Duration) error) runStats {
	round := in.plan.round
	st := newRunStats()
	kinds := make([]*hist, len(round))
	for i, o := range round {
		if st.kinds[o.kind] == nil {
			st.kinds[o.kind] = &hist{}
		}
		kinds[i] = st.kinds[o.kind]
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for time.Since(start) < d {
		for i, o := range round {
			t0 := time.Now()
			ok := true
			for _, s := range o.steps {
				status, body, err := in.main.do(s.req)
				if err != nil || status != s.status || !sameReply(body, s.want) {
					ok = false
					if st.failed < 3 {
						fmt.Fprintf(os.Stderr, "perfbench: %s %s %s failed: status %d err %v\n  got  %.300s\n  want %.300s\n",
							o.kind, s.req.method, s.req.path, status, err, body, s.want)
					}
					if err != nil {
						in.redial()
					}
					break
				}
			}
			lat := time.Since(t0)
			st.lat.add(lat)
			kinds[i].add(lat)
			if !ok || o.fault != nil {
				st.failed++
			}
			if errors.Is(o.fault, errKnownFault) {
				st.known++
			}
			if hook != nil {
				if err := hook(o, lat); err != nil && st.failed < 3 {
					fmt.Fprintf(os.Stderr, "perfbench: traced probe of %s: %v\n", o.kind, err)
				}
			}
		}
		st.rounds++
	}
	st.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.bytes = m1.TotalAlloc - m0.TotalAlloc
	return st
}

// add merges the stats of a later segment of the timed phase.
func (st *runStats) add(o runStats) {
	st.lat.merge(o.lat)
	for k, h := range o.kinds {
		if st.kinds[k] == nil {
			st.kinds[k] = &hist{}
		}
		st.kinds[k].merge(h)
	}
	st.failed += o.failed
	st.known += o.known
	st.rounds += o.rounds
	st.elapsed += o.elapsed
	st.mallocs += o.mallocs
	st.bytes += o.bytes
}

func (in *instance) redial() {
	addr := in.main.c.RemoteAddr().String()
	in.main.close()
	if c, err := dial(addr); err == nil {
		in.main = c
	}
}

// residualAllocs drives the round's requests against a responder that
// does nothing and returns the load generator's own allocations per
// request.
func (in *instance) residualAllocs() float64 {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return -1
	}
	done := make(chan struct{})
	go rawResponder(ln, done)
	defer func() {
		ln.Close()
		<-done
	}()
	c, err := dial(ln.Addr().String())
	if err != nil {
		return -1
	}
	defer c.close()
	var reqs []*request
	for _, o := range in.plan.round {
		for _, s := range o.steps {
			reqs = append(reqs, s.req)
		}
	}
	for _, r := range reqs { // first pass sizes the reused buffers
		c.do(r)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := 0
	for n < 2000 {
		for _, r := range reqs {
			c.do(r)
			n++
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// printKinds reports the calibrated latency deciles of the run and the
// calibrated median, p90 and p99 latency of each operation kind.
func (st runStats) printKinds(w io.Writer, scale float64) {
	fmt.Fprint(w, "perfbench: calibrated deciles_us")
	for q := 1; q <= 9; q++ {
		fmt.Fprintf(w, " %.0f", st.lat.quantile(float64(q)/10)*scale)
	}
	fmt.Fprintln(w)
	kinds := make([]string, 0, len(st.kinds))
	for k := range st.kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		h := st.kinds[k]
		fmt.Fprintf(w, "perfbench:   kind=%-18s n=%-7d p50_us=%-9.1f p90_us=%-9.1f p99_us=%.1f\n",
			k, h.n, h.quantile(0.5)*scale, h.quantile(0.9)*scale, h.quantile(0.99)*scale)
	}
}

// cpuTime returns the CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
