package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/episteme"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/spec"
)

// serveWorkload drives an in-process serve.Server on loopback as a
// closed loop of nproc clients, each waiting for its reply, over the
// loadtest's 1 sweep : 2 check : 7 knowledge mix on fip n=3, t=1.
var serveWorkload = workload{name: "serve_fip_n3", setupReps: 9, setup: setupServe}

//go:embed golden/check_fip_n3.txt
var goldenCheckN3 []byte

const (
	serveRunsN3  = 1544
	serveStripes = 16
	// servePlanLen is the length of the seeded request plan; clients
	// cycle through it.
	servePlanLen = 10000
	// servePassRequests is the request count of one traced pass.
	servePassRequests = 1000
	// maxRetries bounds the 429 retries of one request; a request still
	// refused after them has failed.
	maxRetries = 50
)

const (
	kindSweep     = "sweep"
	kindCheck     = "check"
	kindKnowledge = "knowledge"
)

// planned is one request of the seeded plan with what its reply must be.
type planned struct {
	kind   string
	path   string
	body   []byte
	stripe int                     // sweep: the stripe asked for
	want   serve.KnowledgeResponse // knowledge: the expected answer
}

type serveInstance struct {
	dir     string
	plan    []planned
	stripes [][]byte // reference stream of every stripe
	clients int
	seq     int
	live    *liveServer // the warm server untraced runs measure
}

func setupServe(ctx context.Context, e *env) (instance, error) {
	stack, err := fipStack(3, serveRunsN3)
	if err != nil {
		return nil, err
	}
	sys, err := episteme.BuildSystem(ctx, episteme.ContextFor(stack), stack.Action)
	if err != nil {
		return nil, err
	}
	s := &serveInstance{dir: e.dir, clients: runtime.GOMAXPROCS(0)}
	runner := core.NewRunner(stack, core.WithBufferReuse(),
		core.WithSpecCheck(spec.Options{RoundBound: stack.Horizon(), ValidityAllAgents: true}))
	for i := 0; i < serveStripes; i++ {
		src, err := sweepSource(stack)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if _, err := runner.RunShard(ctx, src, i, serveStripes, &buf); err != nil {
			return nil, err
		}
		s.stripes = append(s.stripes, buf.Bytes())
	}
	if s.plan, err = makePlan(rand.New(rand.NewSource(e.seed)), stack, sys); err != nil {
		return nil, err
	}
	if s.live, err = s.start(); err != nil {
		return nil, err
	}
	// One query builds the server's System, as a deployed server's first
	// caller would; measured requests then find it hot.
	if err := s.send(ctx, s.live, s.plan[firstKnowledge(s.plan)]); err != nil {
		s.live.stop()
		return nil, fmt.Errorf("warm-up query: %w", err)
	}
	return s, nil
}

func firstKnowledge(plan []planned) int {
	for i, p := range plan {
		if p.kind == kindKnowledge {
			return i
		}
	}
	return 0
}

// makePlan draws the request plan: each block of ten holds one sweep,
// two checks and seven knowledge queries in seeded order, and the seed
// picks every sweep's stripe and every query's kind, agent and point.
// Expected knowledge answers are evaluated on the reference System.
func makePlan(rng *rand.Rand, stack core.Stack, sys *episteme.System) ([]planned, error) {
	queries := []string{serve.QueryExists, serve.QueryKnowsExists, serve.QueryKnowsCK, serve.QueryNonfaulty, serve.QueryDecided}
	block := []string{kindSweep, kindCheck, kindCheck}
	for len(block) < 10 {
		block = append(block, kindKnowledge)
	}
	var plan []planned
	for len(plan) < servePlanLen {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			var p planned
			var req any
			switch kind {
			case kindSweep:
				p.stripe = rng.Intn(serveStripes)
				req = serve.SweepRequest{Stack: stack.Name, N: stack.N, T: stack.T,
					Shard: fmt.Sprintf("%d/%d", p.stripe, serveStripes), Parallelism: 1}
			case kindCheck:
				req = serve.CheckRequest{Stack: stack.Name, N: stack.N, T: stack.T, Safety: true, Parallelism: 1}
			default:
				kr := serve.KnowledgeRequest{Stack: stack.Name, N: stack.N, T: stack.T,
					Query: queries[rng.Intn(len(queries))], Agent: rng.Intn(stack.N),
					Run: rng.Intn(len(sys.Runs)), Time: rng.Intn(sys.Horizon + 1), Value: rng.Intn(2), Parallelism: 1}
				p.want = answer(sys, kr)
				req = kr
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			p.kind, p.path, p.body = kind, "/v1/"+kind, body
			plan = append(plan, p)
		}
	}
	return plan, nil
}

// answer evaluates a knowledge query on the System directly, through
// the same episteme methods the query names.
func answer(sys *episteme.System, req serve.KnowledgeRequest) serve.KnowledgeResponse {
	p := episteme.Point{Run: req.Run, Time: req.Time}
	i := model.AgentID(req.Agent)
	v := model.Value(req.Value)
	resp := serve.KnowledgeResponse{Runs: len(sys.Runs), Horizon: sys.Horizon}
	switch req.Query {
	case serve.QueryExists:
		resp.Holds = sys.Exists(v, p)
	case serve.QueryKnowsExists:
		resp.Holds = sys.Knows(i, p, func(q episteme.Point) bool { return sys.Exists(v, q) })
	case serve.QueryKnowsCK:
		resp.Holds = sys.KnowsCK(i, p, v)
	case serve.QueryNonfaulty:
		resp.Holds = sys.Nonfaulty(i, p)
	case serve.QueryDecided:
		d := sys.DecidedVal(i, p)
		resp.Decided = -1
		if d.IsSet() {
			resp.Decided = int(d)
		}
		resp.Holds = d.IsSet() && d == v
	}
	return resp
}

func (s *serveInstance) close() error { return s.live.stop() }

// liveServer is a serve.Server listening on loopback, with a fresh
// result cache behind the timing wrapper.
type liveServer struct {
	srv     *serve.Server
	hs      *http.Server
	base    string
	client  *http.Client
	store   *cache.Cache
	cache   *timedCache
	dir     string
	served  chan error
	retried atomic.Int64
}

func (s *serveInstance) start() (*liveServer, error) {
	s.seq++
	dir := filepath.Join(s.dir, fmt.Sprintf("serve-cache-%d", s.seq))
	store, err := cache.Open(dir)
	if err != nil {
		return nil, err
	}
	tc := newTimedCache(store)
	srv := serve.NewServer(serve.Config{Cache: tc, Fingerprint: cacheFingerprint, Quotient: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, err
	}
	l := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: s.clients}},
		store:  store,
		cache:  tc,
		dir:    dir,
		served: make(chan error, 1),
	}
	go func() { l.served <- l.hs.Serve(ln) }()
	return l, nil
}

// stop drains and shuts the server down, waits for it to exit, and
// removes its cache.
func (l *liveServer) stop() error {
	l.srv.Drain()
	err := l.hs.Shutdown(context.Background())
	if serr := <-l.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	l.client.CloseIdleConnections()
	if cerr := l.store.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(l.dir); err == nil {
		err = rerr
	}
	return err
}

// post sends one request, retrying refusals (429) up to maxRetries times
// with a linear backoff, and returns the final status and body.
func (l *liveServer) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.base+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := l.client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < maxRetries {
			l.retried.Add(1)
			select {
			case <-time.After(time.Duration(attempt+1) * time.Millisecond):
			case <-ctx.Done():
				return 0, nil, context.Cause(ctx)
			}
			continue
		}
		return resp.StatusCode, data, nil
	}
}

// send posts one planned request and verifies its reply against the
// reference made at set-up. A request still refused after its retries
// has failed.
func (s *serveInstance) send(ctx context.Context, l *liveServer, p planned) error {
	status, body, err := l.post(ctx, p.path, p.body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", p.kind, status, bytes.TrimSpace(body))
	}
	return s.reply(p, body)
}

// reply verifies one reply body.
func (s *serveInstance) reply(p planned, body []byte) error {
	switch p.kind {
	case kindSweep:
		if !bytes.Equal(body, s.stripes[p.stripe]) {
			return fmt.Errorf("sweep stripe %d/%d differs from RunShard's stream", p.stripe, serveStripes)
		}
	case kindCheck:
		if !bytes.Equal(body, goldenCheckN3) {
			return fmt.Errorf("check block differs from golden/check_fip_n3.txt:\n%s", body)
		}
	default:
		var got serve.KnowledgeResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("knowledge reply: %w", err)
		}
		if got != p.want {
			return fmt.Errorf("knowledge %s: got %+v, want %+v", p.body, got, p.want)
		}
	}
	return nil
}

// served is one request's outcome.
type served struct {
	kind    string
	stripe  int
	latency time.Duration
	err     error
}

// drive runs the closed loop: s.clients clients each send the next
// planned request and wait for its verified reply, until more returns
// false for the request number about to be taken. Each request gets its
// own trace id.
func (s *serveInstance) drive(ctx context.Context, l *liveServer, p passTrace, more func(k int) bool) []served {
	var next atomic.Int64
	var mu sync.Mutex
	var out []served
	var wg sync.WaitGroup
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if !more(k) {
					return
				}
				pl := s.plan[k%len(s.plan)]
				t0 := time.Now()
				err := p.tr.do(fmt.Sprintf("request-%d", k), p.root, "serve."+pl.kind, func() error {
					return s.send(ctx, l, pl)
				})
				r := served{kind: pl.kind, stripe: pl.stripe, latency: time.Since(t0), err: err}
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// measure drives the warm server from set-up for d.
func (s *serveInstance) measure(ctx context.Context, d time.Duration) (*measured, error) {
	m := &measured{tally: tally{base: "HTTP requests"}, runsNote: "records streamed in sweep replies"}
	start := time.Now()
	results := s.drive(ctx, s.live, passTrace{}, func(int) bool { return time.Since(start) < d })
	wall := time.Since(start)
	lat := map[string][]float64{}
	var records int64
	for _, r := range results {
		m.record(r.err)
		v := ms(r.latency)
		if r.err != nil {
			m.fail(r.err)
			v = inf
		} else if r.kind == kindSweep {
			records += core.StripeSize(serveRunsN3, r.stripe, serveStripes)
		}
		lat[r.kind] = append(lat[r.kind], v)
		m.opMS = append(m.opMS, v)
	}
	m.runsPerS = []float64{float64(records) / wall.Seconds()}
	m.report = append(m.report,
		reportLine{name: "serve_rps", value: float64(len(results)) / wall.Seconds(), unit: "1/s",
			note: fmt.Sprintf("%d requests from %d closed-loop clients", len(results), s.clients)},
		percentileLine("knowledge_p50_ms", lat[kindKnowledge], 0.50),
		percentileLine("knowledge_p99_ms", lat[kindKnowledge], 0.99),
		percentileLine("check_p50_ms", lat[kindCheck], 0.50),
		percentileLine("check_p98_ms", lat[kindCheck], 0.98),
		percentileLine("sweep_p50_ms", lat[kindSweep], 0.50),
		percentileLine("sweep_p95_ms", lat[kindSweep], 0.95),
		reportLine{name: "retried_429", value: float64(s.live.retried.Load()), unit: "count"})
	return m, nil
}

// pass starts a fresh server (cold System LRU, empty result cache),
// drives servePassRequests requests through it, and scrapes its
// /metrics.
func (s *serveInstance) pass(ctx context.Context, p passTrace) (layerSample, tally, error) {
	t := tally{base: "HTTP requests"}
	var l *liveServer
	if err := p.do("serve.start", func() (err error) {
		l, err = s.start()
		return err
	}); err != nil {
		return nil, t, err
	}
	results := s.drive(ctx, l, p, func(k int) bool { return k < servePassRequests })
	for _, r := range results {
		t.record(r.err)
	}
	var m layerSample
	err := p.do("serve.metrics", func() (err error) {
		m, err = l.scrape(ctx)
		return err
	})
	if serr := p.do("serve.stop", l.stop); err == nil {
		err = serr
	}
	if err != nil {
		return nil, t, err
	}
	m["serve.retried_429"] = float64(l.retried.Load())
	var c cacheTotals
	c.add(l.cache)
	c.layer(m)
	return m, t, nil
}

// scrape reads the server's /metrics into serve.* per-layer metrics.
func (l *liveServer) scrape(ctx context.Context) (layerSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	prom, err := parseProm(resp.Body)
	if err != nil {
		return nil, err
	}
	m := layerSample{
		"serve.build_s":                prom["eba_build_seconds_sum"],
		"serve.lru_hit_ratio":          prom["eba_system_lru_hit_ratio"],
		"serve.lru_misses":             prom["eba_system_lru_misses_total"],
		"serve.result_cache_hit_ratio": prom["eba_result_cache_hit_ratio"],
	}
	for _, kind := range []string{kindSweep, kindCheck, kindKnowledge} {
		m["serve."+kind+"_handler_s"] = prom["eba_request_seconds_"+kind+"_sum"]
		m["serve.rejected"] += prom[`eba_requests_rejected_total{kind="`+kind+`"}`]
	}
	return m, nil
}

// parseProm reads the Prometheus text exposition into series → value.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("/metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
