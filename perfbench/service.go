package main

import (
	"bufio"
	"bytes"
	"context"
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

	"femtoverse/internal/cache"
	"femtoverse/internal/core"
	"femtoverse/internal/obs"
	"femtoverse/internal/serve"
)

// svcClients is the closed loop's client count, and svcSolveWorkers the
// server pool's solve-worker count (one contraction worker beside it).
const (
	svcClients      = 2
	svcSolveWorkers = 2
)

// svcTenants are the three tenants and their fair-share priorities.
var svcTenants = []struct {
	name     string
	priority int
}{{"t1", 1}, {"t2", 2}, {"t3", 3}}

// svcDims is every service-dedupe campaign's lattice.
var svcDims = [4]int{2, 2, 2, 4}

// svcRequest is one campaign submission of service-dedupe. Base names
// the base spec it was drawn from; it is not sent to the server.
type svcRequest struct {
	Base     int    `json:"base"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority"`
	Ls       int    `json:"ls"`
	NConfigs int    `json:"nconfigs"`
	Seed     int64  `json:"seed"`
	Prec     string `json:"prec"`
}

// genRequests draws round r of service-dedupe's requests from the seed.
// Every combination of Ls (2-4), configuration count (1-3) and precision
// (single, double) is one base spec with its own gauge ensemble; each
// base is submitted twice, by two different tenants, so exactly half of
// the round's (spec, configuration) keys repeat an earlier key. The
// ensembles are the same for every seed, so every round does the same
// solver work; the seed draws the tenants and, per round, the
// submission order.
func genRequests(seed int64, round int) []svcRequest {
	rng := rand.New(rand.NewSource(deriveSeed(seed, "service-round", round)))
	var reqs []svcRequest
	i := 0
	for _, ls := range []int{2, 3, 4} {
		for _, n := range []int{1, 2, 3} {
			for _, prec := range []string{"single", "double"} {
				base := svcRequest{Base: i, Ls: ls, NConfigs: n, Prec: prec, Seed: deriveSeed(0, "service", i)}
				t := rng.Intn(len(svcTenants))
				for c := 0; c < 2; c++ {
					r := base
					tn := svcTenants[(t+c)%len(svcTenants)]
					r.Tenant, r.Priority = tn.name, tn.priority
					reqs = append(reqs, r)
				}
				i++
			}
		}
	}
	rng.Shuffle(len(reqs), func(a, b int) { reqs[a], reqs[b] = reqs[b], reqs[a] })
	return reqs
}

// submitRequest is r's POST /v1/campaigns body.
func (r svcRequest) submitRequest() serve.SubmitRequest {
	dims, ls, n, seed, prec := svcDims, r.Ls, r.NConfigs, r.Seed, r.Prec
	return serve.SubmitRequest{
		Tenant:   r.Tenant,
		Priority: r.Priority,
		Spec:     serve.SpecRequest{Dims: &dims, Ls: &ls, NConfigs: &n, Seed: &seed, Prec: &prec},
	}
}

// spec is the campaign spec the server materializes for r.
func (r svcRequest) spec() (core.RealConfig, error) {
	return r.submitRequest().RealConfig()
}

// distinctKeys counts the distinct (spec, configuration) cache keys of a
// request list: the number of solves a deduplicating service runs.
func distinctKeys(reqs []svcRequest) (int, error) {
	keys := map[string]bool{}
	for _, r := range reqs {
		spec, err := r.spec()
		if err != nil {
			return 0, err
		}
		for i := 0; i < spec.NConfigs; i++ {
			keys[core.SolveKey(spec, i).ID] = true
		}
	}
	return len(keys), nil
}

// svcServer is one service instance on a loopback listener, with its
// own state directory and disk-tier cache.
type svcServer struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan error
}

func startServer(dir string) (*svcServer, error) {
	reg := obs.NewRegistry()
	store, err := cache.New(cache.Config{Dir: filepath.Join(dir, "cache"), Metrics: reg})
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(context.Background(), serve.Config{
		StateDir:        filepath.Join(dir, "state"),
		SolveWorkers:    svcSolveWorkers,
		ContractWorkers: 1,
		Cache:           store,
		Metrics:         reg,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // the listen error is the one to report
		return nil, err
	}
	s := &svcServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener, drains the service and waits for both.
func (s *svcServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	herr := s.hs.Shutdown(ctx)
	serr := s.srv.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(herr, serr)
}

// reqSample is the client's record of one request.
type reqSample struct {
	id          string
	latency     time.Duration // submit to the "complete" event
	submit      time.Duration // the POST round trip
	firstConfig time.Duration // submit to the first "config" event
	spans       []float64     // the server's "solve NNN" spans, seconds
}

// doRequest submits one campaign and follows its event stream to
// completion; traced also fetches the campaign's Chrome trace.
func doRequest(hc *http.Client, base string, r svcRequest, traced bool) (reqSample, error) {
	body, err := json.Marshal(r.submitRequest())
	if err != nil {
		return reqSample{}, err
	}
	t0 := time.Now()
	resp, err := hc.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return reqSample{}, err
	}
	var st serve.CampaignStatus
	err = decodeResponse(resp, http.StatusCreated, &st)
	s := reqSample{id: st.ID, submit: time.Since(t0)}
	if err != nil {
		return s, fmt.Errorf("submit: %w", err)
	}

	resp, err = hc.Get(base + "/v1/campaigns/" + st.ID + "/events")
	if err != nil {
		return s, err
	}
	done, err := followEvents(resp.Body, t0, &s)
	resp.Body.Close()
	if err != nil {
		return s, err
	}
	if !done {
		return s, fmt.Errorf("campaign %s: event stream ended before completion", st.ID)
	}
	if traced {
		resp, err := hc.Get(base + "/v1/campaigns/" + st.ID + "/trace")
		if err != nil {
			return s, err
		}
		var tr struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
				Dur  int64  `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := decodeResponse(resp, http.StatusOK, &tr); err != nil {
			return s, fmt.Errorf("trace: %w", err)
		}
		for _, e := range tr.TraceEvents {
			if e.Ph == "X" && strings.HasPrefix(e.Name, "solve ") {
				s.spans = append(s.spans, float64(e.Dur)/1e6)
			}
		}
	}
	return s, nil
}

// followEvents reads an NDJSON event stream until the "complete" event,
// recording the first configuration's and the completion's arrival.
func followEvents(body io.Reader, t0 time.Time, s *reqSample) (bool, error) {
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return false, fmt.Errorf("event stream: %w", err)
		}
		switch ev.Kind {
		case "config":
			if s.firstConfig == 0 {
				s.firstConfig = time.Since(t0)
			}
		case "complete":
			s.latency = time.Since(t0)
			return true, nil
		case "failed", "stranded":
			return false, fmt.Errorf("campaign %s: %s", s.id, ev.Msg)
		}
	}
	return false, sc.Err()
}

// readBody reads and closes a response body, failing on any status but
// want.
func readBody(resp *http.Response, want int) ([]byte, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// decodeResponse checks the status and decodes a JSON body.
func decodeResponse(resp *http.Response, want int, v interface{}) error {
	data, err := readBody(resp, want)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// counters parses the counter lines of the /metrics text.
func counters(text string) map[string]int64 {
	out := map[string]int64{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// roundResult is one round: every request's sample (nil where it
// failed), the campaigns' fingerprints by request index, the /metrics
// counters and the clients' busy window.
type roundResult struct {
	reqs     []svcRequest
	samples  []*reqSample
	fps      []string
	counters map[string]int64
	busy     time.Duration
}

// serviceRound runs one round of requests against a fresh server: a
// closed loop of svcClients clients, each submitting its next request
// only once the previous one completed.
func (b *bench) serviceRound(hc *http.Client, reqs []svcRequest, traced bool) (roundResult, error) {
	dir, err := os.MkdirTemp(b.scratch, "round-")
	if err != nil {
		return roundResult{}, err
	}
	defer os.RemoveAll(dir)
	s, err := startServer(dir)
	if err != nil {
		return roundResult{}, err
	}
	rr := roundResult{reqs: reqs, samples: make([]*reqSample, len(reqs)), fps: make([]string, len(reqs))}
	errs := make([]error, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				smp, err := doRequest(hc, s.base, reqs[i], traced)
				if err != nil {
					errs[i] = err
					continue
				}
				rr.samples[i] = &smp
			}
		}()
	}
	wg.Wait()
	rr.busy = time.Since(t0)

	var list []serve.CampaignStatus
	resp, err := hc.Get(s.base + "/v1/campaigns")
	if err == nil {
		err = decodeResponse(resp, http.StatusOK, &list)
	}
	var text []byte
	if err == nil {
		if resp, err = hc.Get(s.base + "/metrics"); err == nil {
			text, err = readBody(resp, http.StatusOK)
		}
	}
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return rr, err
	}
	rr.counters = counters(string(text))
	byID := map[string]string{}
	for _, st := range list {
		byID[st.ID] = st.Fingerprint
	}
	for i, smp := range rr.samples {
		b.attempted++
		if smp == nil {
			b.failed++
			b.logf("request %d failed: %v", i, errs[i])
			continue
		}
		rr.fps[i] = byID[smp.id]
	}
	return rr, nil
}

// servicePhase runs rounds for one window, round numbers counting on
// from first.
func (b *bench) servicePhase(hc *http.Client, first int, window time.Duration, traced bool, keys int) ([]roundResult, error) {
	var rounds []roundResult
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < window {
		rr, err := b.serviceRound(hc, genRequests(b.seed, first+len(rounds)), traced)
		if err != nil {
			return nil, err
		}
		computes := rr.counters["cache.computes"]
		b.exact("cache.computes", fmt.Sprint(computes))
		b.check(computes == int64(keys), "service-dedupe: cache.computes = %d, want %d distinct keys", computes, keys)
		for i, fp := range rr.fps {
			if rr.samples[i] != nil {
				b.exact(fmt.Sprintf("fingerprint.base%02d", rr.reqs[i].Base), fp)
			}
		}
		rounds = append(rounds, rr)
	}
	return rounds, nil
}

// latencies gathers one field of every completed request, in seconds.
func latencies(rounds []roundResult, field func(*reqSample) time.Duration) []float64 {
	var out []float64
	for _, rr := range rounds {
		for _, s := range rr.samples {
			if s != nil {
				out = append(out, field(s).Seconds())
			}
		}
	}
	return out
}

func busyPerRequest(rounds []roundResult) float64 {
	var busy time.Duration
	n := 0
	for _, rr := range rounds {
		busy += rr.busy
		n += len(rr.samples)
	}
	return busy.Seconds() / float64(n)
}

// runServiceDedupe is the service-dedupe workload: the multi-tenant
// campaign service over HTTP on loopback, fresh state and cache per
// round, loaded by a closed loop of two clients across three tenants.
func runServiceDedupe(b *bench) error {
	b.env["pool_solve_workers"] = svcSolveWorkers
	b.env["pool_contract_workers"] = 1
	b.env["clients"] = svcClients
	// The timeout bounds a request, event stream included, so a stuck
	// server fails the run instead of hanging it.
	hc := &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 2 * svcClients}}
	defer hc.CloseIdleConnections()

	keys, err := distinctKeys(genRequests(b.seed, 0))
	if err != nil {
		return err
	}

	// Set-up: start a server, serve one warm-up request over HTTP on an
	// input the rounds never use, shut it down; setup_s is the median.
	warm := svcRequest{Tenant: "warmup", Priority: 1, Ls: 4, NConfigs: 3, Prec: "double"}
	var setups []float64
	for r := 0; r < setupReps; r++ {
		warm.Seed = deriveSeed(b.seed, "service-warmup", r)
		t0 := time.Now()
		if err := warmUp(b.scratch, hc, warm); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC()
	}
	b.metrics["setup_s"] = median(setups)
	b.logf("setup %s", describe(setups))

	plain, err := b.servicePhase(hc, 0, b.window(), false, keys)
	if err != nil {
		return err
	}
	lat := latencies(plain, func(s *reqSample) time.Duration { return s.latency })
	b.logf("request latency %s", describe(lat))
	b.env["samples_requests"] = len(lat)
	b.env["samples_rounds"] = len(plain)
	b.env["requests_per_round"] = len(plain[0].reqs)
	b.env["distinct_keys_per_round"] = keys
	b.metrics["work_per_s"] = 1 / busyPerRequest(plain)
	b.metrics["e2e.op_p50_s"] = median(lat)
	b.metrics["e2e.op_p90_s"] = percentile(lat, 0.9)

	var traced []roundResult
	if b.traced {
		if traced, err = b.servicePhase(hc, len(plain), b.window(), true, keys); err != nil {
			return err
		}
		b.serviceLayers(plain, traced)
	}
	return b.serviceReference(append(plain, traced...))
}

// warmUp starts a server, completes one request and stops it.
func warmUp(scratch string, hc *http.Client, r svcRequest) error {
	dir, err := os.MkdirTemp(scratch, "warmup-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := startServer(dir)
	if err != nil {
		return err
	}
	_, err = doRequest(hc, s.base, r, false)
	return errors.Join(err, s.stop())
}

// serviceLayers derives the traced run's per-layer metrics.
func (b *bench) serviceLayers(plain, traced []roundResult) {
	b.metrics["trace_overhead"] = busyPerRequest(traced)/busyPerRequest(plain) - 1
	b.metrics["serve.submit_s"] = median(latencies(traced, func(s *reqSample) time.Duration { return s.submit }))
	b.metrics["serve.first_config_s"] = median(latencies(traced, func(s *reqSample) time.Duration { return s.firstConfig }))
	var spans []float64
	var busy time.Duration
	var computes, coalesced, lookups, failures []float64
	for _, rr := range traced {
		busy += rr.busy
		for _, s := range rr.samples {
			if s != nil {
				spans = append(spans, s.spans...)
			}
		}
		c := rr.counters
		computes = append(computes, float64(c["cache.computes"]))
		coalesced = append(coalesced, float64(c["cache.coalesced"]))
		lookups = append(lookups, float64(c["cache.hits"]+c["cache.misses"]))
		failures = append(failures, float64(c["serve.solve_failures"]+c["serve.dispatch_errors"]))
	}
	b.logf("server solve spans %s", describe(spans))
	b.metrics["serve.solve_span_s"] = median(spans)
	// The server's pool report is not exposed, so solve utilization is
	// the solve spans' busy time over the workers' share of the rounds.
	b.metrics["runtime.solve_util"] = sum(spans) / (float64(svcSolveWorkers) * busy.Seconds())
	b.metrics["runtime.failed_attempts"] = sum(failures)
	b.metrics["cache.computes"] = median(computes)
	b.metrics["cache.coalesced"] = median(coalesced)
	// Lookups answered without a compute (a tier hit or a coalesced
	// wait) over all lookups.
	b.metrics["cache.hit_ratio"] = 1 - sum(computes)/sum(lookups)
	b.env["samples_traced_rounds"] = len(traced)
	b.env["samples_solve_spans"] = len(spans)
}

// serviceReference checks every campaign the service completed against
// the in-process core result for the same spec and, in a traced run,
// times core.Journal appends and syncs of those correlators.
func (b *bench) serviceReference(rounds []roundResult) error {
	want := map[int]string{}
	var appends, syncs []float64
	for _, rr := range rounds {
		for i, r := range rr.reqs {
			if rr.samples[i] == nil {
				continue
			}
			if _, ok := want[r.Base]; !ok {
				camp, err := b.referenceCampaign(r)
				if err != nil {
					return err
				}
				want[r.Base] = camp.Fingerprint()
				if b.traced {
					a, s, err := b.journalProbe(camp, r.Base)
					if err != nil {
						return err
					}
					appends = append(appends, a...)
					syncs = append(syncs, s)
				}
			}
			b.check(rr.fps[i] == want[r.Base], "service-dedupe: base %d fingerprint %s, core computes %s", r.Base, rr.fps[i], want[r.Base])
		}
	}
	if b.traced {
		b.metrics["core.journal_append_s"] = median(appends)
		b.metrics["core.journal_sync_s"] = median(syncs)
		b.logf("journal append %s", describe(appends))
		b.logf("journal sync %s", describe(syncs))
	}
	return nil
}

// referenceCampaign computes r's campaign in process with core's
// campaign driver, no cache. (RunRealConcurrent would add a jackknife
// that needs two configurations; some requests have one.)
func (b *bench) referenceCampaign(r svcRequest) (*core.Campaign, error) {
	spec, err := r.spec()
	if err != nil {
		return nil, err
	}
	camp := core.NewCampaign(spec)
	if _, _, err := camp.RunBatchConcurrent(context.Background(), spec.NConfigs, svcSolveWorkers); err != nil {
		return nil, fmt.Errorf("reference campaign: %w", err)
	}
	if !camp.Complete() {
		return nil, fmt.Errorf("reference campaign: %d of %d configurations", camp.Done(), spec.NConfigs)
	}
	return camp, nil
}

// journalProbe writes one campaign's correlators through a core.Journal
// with every=1, as the service journals them, timing each Append and
// the final Sync.
func (b *bench) journalProbe(camp *core.Campaign, i int) ([]float64, float64, error) {
	j, err := core.CreateJournal(filepath.Join(b.scratch, fmt.Sprintf("probe-%02d.fwal", i)), camp.Spec, 1)
	if err != nil {
		return nil, 0, err
	}
	var appends []float64
	for c := 0; c < camp.Spec.NConfigs; c++ {
		t0 := time.Now()
		if err := j.Append(c, camp.C2[c], camp.CFH[c]); err != nil {
			j.Close()
			return nil, 0, err
		}
		appends = append(appends, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	if err := j.Sync(); err != nil {
		j.Close()
		return nil, 0, err
	}
	sync := time.Since(t0).Seconds()
	return appends, sync, j.Close()
}
