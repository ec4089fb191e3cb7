package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"scaledeep/internal/server"
	"scaledeep/internal/store"
	"scaledeep/internal/sweep"
	"scaledeep/internal/telemetry"
)

// pollEvery is how long a client waits between result polls.
const pollEvery = 500 * time.Microsecond

// liveServer is server.New plus its Mux behind a real loopback listener.
type liveServer struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	cancel context.CancelFunc
	served chan error
}

// startServer serves st (and p, when non-nil) on 127.0.0.1 with rate
// limits no client of the benchmark can reach, so no request is refused
// for pacing; queue and concurrency keep their defaults.
func startServer(e *env, st *store.Store, p sweep.Predictor) (*liveServer, error) {
	srv := server.New(server.Config{Store: st, Predictor: p, RatePerSec: 1e9, Burst: 1 << 30})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(e.ctx)
	srv.Start(ctx)
	ls := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Mux()},
		base:   "http://" + ln.Addr().String(),
		cancel: cancel,
		served: make(chan error, 1),
	}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	return ls, nil
}

// close stops the listener, drains the scheduler and waits for both.
func (ls *liveServer) close() error {
	err := ls.hs.Shutdown(context.Background())
	if serr := <-ls.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	ls.cancel()
	ls.srv.Drain()
	return err
}

// client submits one job at a time and polls for its result.
type client struct {
	http *http.Client
	base string
	id   string
}

// jobOut is one job as its client saw it.
type jobOut struct {
	body    []byte
	latency time.Duration // submit to verified-ready result bytes
	submit  time.Duration // the POST round trip
	result  time.Duration // the GET that returned the bytes
	polls   int
	refused bool
}

func specFor(j serveJob) server.Spec {
	return server.Spec{
		Workloads: []string{j.Cell.Workload}, Archs: []string{j.Cell.Arch},
		Minibatches: []int{j.Cell.MB}, Modes: []string{j.Cell.Mode},
		Iterations: j.Cell.Iters, Format: "csv", Predict: j.Predict,
	}
}

// do submits spec with POST /jobs, then polls GET /jobs/{id}/result every
// pollEvery until the bytes arrive or the job ends without them.
func (c *client) do(ctx context.Context, spec server.Spec) (jobOut, error) {
	var out jobOut
	body, err := json.Marshal(spec)
	if err != nil {
		return out, err
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	req.Header.Set("X-Client", c.id)
	code, resp, err := c.call(req)
	if err != nil {
		return out, err
	}
	out.submit = time.Since(start)
	if code != http.StatusAccepted {
		out.refused = true
		return out, fmt.Errorf("submit refused: %d %s", code, resp)
	}
	var accepted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &accepted); err != nil {
		return out, fmt.Errorf("submit response: %w", err)
	}
	for {
		t := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+accepted.ID+"/result", nil)
		if err != nil {
			return out, err
		}
		code, resp, err := c.call(req)
		if err != nil {
			return out, err
		}
		out.polls++
		if code == http.StatusOK {
			out.result = time.Since(t)
			out.latency = time.Since(start)
			out.body = resp
			return out, nil
		}
		if code != http.StatusNotFound || !(bytes.Contains(resp, []byte("job is queued")) || bytes.Contains(resp, []byte("job is running"))) {
			err := fmt.Errorf("job %s: %d %s", accepted.ID, code, strings.TrimSpace(string(resp)))
			// The status document carries the job's own error, if it has one.
			if req, rerr := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+accepted.ID, nil); rerr == nil {
				if _, doc, derr := c.call(req); derr == nil {
					err = fmt.Errorf("%w; status %s", err, strings.TrimSpace(string(doc)))
				}
			}
			return out, err
		}
		time.Sleep(pollEvery)
	}
}

func (c *client) call(req *http.Request) (int, []byte, error) {
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
}

// setServerMetrics reports the server.* metrics from the jobs of one loop.
func setServerMetrics(m metrics, outs []jobOut) {
	var submit, result []float64
	var polls, refused int
	for _, o := range outs {
		if o.refused {
			refused++
			continue
		}
		submit = append(submit, ms(o.submit))
		if o.body != nil {
			result = append(result, ms(o.result))
		}
		polls += o.polls
	}
	m.set("server.submit_ms", "ms", median(submit))
	m.set("server.result_ms", "ms", median(result))
	m.set("server.polls_per_job", "count", float64(polls)/float64(len(outs)))
	m.set("server.refused", "count", float64(refused))
	m.set("server.jobs", "count", float64(len(outs)))
}

// probeServer is a grid workload's server probe: one client submits the
// workload's grid as a job, one after another, to a server over the
// populated store in dir; every result must equal ref.
func probeServer(e *env, dir string, g sweep.Grid, ref []byte, m metrics) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	ls, err := startServer(e, st, nil)
	if err != nil {
		return err
	}
	cl := &client{http: newHTTPClient(), base: ls.base, id: "probe"}
	spec := server.Spec{
		Workloads: g.Workloads, Archs: g.Archs, Minibatches: g.Minibatches,
		Modes: g.Modes, Iterations: g.Iterations, Format: "csv",
	}
	var outs []jobOut
	for i := 0; i < 50; i++ {
		out, err := cl.do(e.ctx, spec)
		if err == nil {
			err = sameBytes("served grid table", out.body, ref)
		}
		e.tally.check(err)
		outs = append(outs, out)
	}
	setServerMetrics(m, outs)
	if err := ls.close(); err != nil {
		return err
	}
	return st.Close()
}

// serveSetup is serve-mix's set-up: a fresh store, the predictor harvested
// through it (which also writes the hot set) and fitted, and the server.
type serveSetup struct {
	st  *store.Store
	fit fitted
	ls  *liveServer
}

func newServeSetup(e *env) (*serveSetup, error) {
	dir, err := e.tempDir()
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	fit, err := fitPredictor(e, st)
	if err != nil {
		return nil, err
	}
	ls, err := startServer(e, st, fit.model)
	if err != nil {
		return nil, err
	}
	return &serveSetup{st: st, fit: fit, ls: ls}, nil
}

func (s *serveSetup) close() error {
	err := s.ls.close()
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// served is one job of the closed loop and what came back.
type served struct {
	job serveJob
	out jobOut
	err error
	at  time.Duration // completion, since the window opened
}

// runServeMix: a closed loop of serveClients clients against a live server.
// Each client sends its next job only once the previous result arrived.
func runServeMix(e *env) (metrics, error) {
	plan, err := newServePlan(e.seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	var (
		setup []float64
		fitS  []float64
		s     *serveSetup
	)
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		if s, err = newServeSetup(e); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t).Seconds())
		fitS = append(fitS, s.fit.fitS)
	}
	defer s.close()

	before := s.st.Stats()
	hc := newHTTPClient()
	perClient := make([][]served, serveClients)
	var wg sync.WaitGroup
	a0 := totalAlloc()
	w := openWindow(e.window)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &client{http: hc, base: s.ls.base, id: fmt.Sprintf("client-%d", c)}
			for _, job := range plan.Clients[c] {
				if !w.remaining() {
					return
				}
				out, err := cl.do(e.ctx, specFor(job))
				perClient[c] = append(perClient[c], served{job: job, out: out, err: err, at: time.Since(w.start)})
			}
		}(c)
	}
	wg.Wait()
	w.alloc = totalAlloc() - a0
	if err := w.close(); err != nil {
		return nil, err
	}
	after := s.st.Stats()
	var all []served
	for _, jobs := range perClient {
		all = append(all, jobs...)
	}

	cycles, err := checkServed(e, all, s.fit)
	if err != nil {
		return nil, err
	}
	for i, sv := range all {
		if sv.err == nil {
			// Every serve-mix job asks for one cell.
			w.done = append(w.done, completion{at: sv.at, latMS: ms(sv.out.latency), cells: 1, cycles: float64(cycles[i])})
		}
	}
	if !e.trace {
		return w.endToEnd(setup, e.tally)
	}

	runS := time.Since(t0).Seconds()
	probeStart := time.Now()
	m := metrics{}
	outs := make([]jobOut, len(all))
	var cells []cell
	var novel []sweep.Grid
	for i, sv := range all {
		outs[i] = sv.out
		cells = append(cells, sv.job.Cell)
		if sv.job.Kind == kindNovel && len(novel) < 32 {
			novel = append(novel, sv.job.Cell.grid())
		}
	}
	setServerMetrics(m, outs)
	setStoreStats(m, store.Stats{
		MemHits:   after.MemHits - before.MemHits,
		DiskHits:  after.DiskHits - before.DiskHits,
		Misses:    after.Misses - before.Misses,
		Coalesced: after.Coalesced - before.Coalesced,
	})
	m.set("sweep.distinct_frac", "ratio", float64(len(distinct(cells)))/float64(len(cells)))
	// The sweep pass a hot job makes: RunGrid of one stored cell against
	// the memory tier.
	var passMS []float64
	for _, c := range plan.Hot {
		t := time.Now()
		if _, err := sweep.RunGrid(e.ctx, c.grid(), sweep.Options{Store: s.st}); err != nil {
			return nil, err
		}
		passMS = append(passMS, ms(time.Since(t)))
	}
	m.set("sweep.pass_ms", "ms", median(passMS))
	if _, err := probeLayers(e, novel, m); err != nil {
		return nil, err
	}
	fit := s.fit
	fit.fitS = median(fitS)
	if err := probePredictor(e, &fit, m); err != nil {
		return nil, err
	}
	m.set("trace.overhead_frac", "ratio", time.Since(probeStart).Seconds()/runS)
	return m, nil
}

// checkServed compares every job's bytes with an untimed reference: the
// job's spec run through sweep.RunGrid with no store, and with the
// predictor only for predict:true jobs. It returns each job's answered
// cycles, taken from the reference rows.
func checkServed(e *env, all []served, f fitted) ([]int64, error) {
	type refKey struct {
		c       cell
		predict bool
	}
	index := map[refKey]int{}
	var keys []refKey
	for _, sv := range all {
		k := refKey{sv.job.Cell, sv.job.Predict}
		if _, ok := index[k]; !ok {
			index[k] = len(keys)
			keys = append(keys, k)
		}
	}
	type ref struct {
		csv    []byte
		cycles int64
	}
	refs, err := sweep.Map(e.ctx, keys, sweep.Options{}, func(ctx context.Context, _ int, k refKey, _ *telemetry.Registry) (ref, error) {
		opts := sweep.Options{Workers: 1}
		if k.predict {
			opts.Predictor = f.model
		}
		res, err := sweep.RunGrid(ctx, k.c.grid(), opts)
		if err != nil {
			return ref{}, err
		}
		var buf bytes.Buffer
		if err := sweep.WriteCSV(&buf, res); err != nil {
			return ref{}, err
		}
		return ref{csv: buf.Bytes(), cycles: sumCycles(res)}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("reference runs: %w", err)
	}
	cycles := make([]int64, len(all))
	for i, sv := range all {
		rf := refs[index[refKey{sv.job.Cell, sv.job.Predict}]]
		what := fmt.Sprintf("%s job %v", sv.job.Kind, sv.job.Cell)
		err := sv.err
		if err == nil {
			err = sameBytes(what, sv.out.body, rf.csv)
		} else {
			err = fmt.Errorf("%s: %w", what, err)
		}
		e.tally.check(err)
		cycles[i] = rf.cycles
	}
	return cycles, nil
}
