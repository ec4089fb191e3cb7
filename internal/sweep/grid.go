package sweep

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"scaledeep/internal/arch"
	"scaledeep/internal/compiler"
	"scaledeep/internal/dnn"
	"scaledeep/internal/sim"
	"scaledeep/internal/store"
	"scaledeep/internal/telemetry"
	"scaledeep/internal/tensor"
	"scaledeep/internal/zoo"
)

// Grid is a sweep specification: the cross product of its axes, enumerated
// workload-major (workload, then arch, then minibatch, then mode) so job
// indices — and therefore table row order — are stable for a given spec.
type Grid struct {
	Workloads   []string // workload names (see Workloads)
	Archs       []string // chip configs (see Archs)
	Minibatches []int    // minibatch sizes, each ≥ 1
	Modes       []string // "eval" (FP only) and/or "train" (FP+BP+WG)
	Iterations  int      // training iterations per job; 0 means 1
}

// Workloads lists the cycle-simulator workload catalog: networks small
// enough for the functional simulator to execute whole, mirroring the nets
// the CLI tools simulate (sdsim's simnet, sdtrain's trainnet, sdprof's
// MiniVGG reference workload) plus fcnet, an FC-only stack that exercises
// the MLP/LSTM-style layer balance of the paper's Table 2.
func Workloads() []string { return []string{"simnet", "trainnet", "minivgg", "fcnet"} }

// Archs lists the chip configurations a grid can sweep: the Fig. 14
// single-precision baseline and the Fig. 17 half-precision design.
func Archs() []string { return []string{"baseline", "half"} }

// Job is one grid point.
type Job struct {
	Index     int
	Workload  string
	Arch      string
	Minibatch int
	Mode      string
	Iters     int
}

// Name returns the job's stable identifier, e.g. "simnet/baseline/mb2/eval".
func (j Job) Name() string {
	return fmt.Sprintf("%s/%s/mb%d/%s", j.Workload, j.Arch, j.Minibatch, j.Mode)
}

// Result sources distinguish how a row's measurements were obtained: every
// simulated (or store-replayed) cell is exact; only the learned fast path
// (Options.Predictor) produces predicted rows.
const (
	SourceExact     = "exact"
	SourcePredicted = "predicted"
)

// Result is one completed grid point, keyed by the job that produced it.
type Result struct {
	Job
	Cycles       int64
	Instructions int64
	FLOPs        int64
	PEUtil       float64
	CompMemBytes int64
	MemMemBytes  int64
	ExtMemBytes  int64
	NACKs        int64
	// Checksum is the sum of the last image's output vector — a functional
	// fingerprint that makes cross-parallelism determinism checkable from
	// the table itself.
	Checksum float32

	// Cycle-stall attribution summed over the chip's CompHeavy tiles
	// (sim.Stats.AttrTotal, with the tracker-nack/tracker-wait pair folded
	// into one tracker bucket and drain/idle into other). The five buckets
	// sum to Cycles × NumCompHeavy tiles — the labels the learned cycle
	// predictor trains on.
	AttrCompute int64
	AttrDMAWait int64
	AttrTracker int64
	AttrLink    int64
	AttrOther   int64

	// Source is SourceExact for simulated or store-replayed measurements
	// and SourcePredicted for learned fast-path estimates.
	Source string
}

// Jobs enumerates and validates the grid.
func (g Grid) Jobs() ([]Job, error) {
	if len(g.Workloads) == 0 || len(g.Archs) == 0 || len(g.Minibatches) == 0 || len(g.Modes) == 0 {
		return nil, fmt.Errorf("sweep: grid needs at least one workload, arch, minibatch and mode")
	}
	iters := g.Iterations
	if iters <= 0 {
		iters = 1
	}
	var jobs []Job
	for _, wl := range g.Workloads {
		if _, err := buildWorkload(wl); err != nil {
			return nil, err
		}
		for _, ar := range g.Archs {
			if _, _, err := chipFor(ar); err != nil {
				return nil, err
			}
			for _, mb := range g.Minibatches {
				if mb < 1 {
					return nil, fmt.Errorf("sweep: minibatch %d out of range", mb)
				}
				for _, mode := range g.Modes {
					if mode != "eval" && mode != "train" {
						return nil, fmt.Errorf("sweep: unknown mode %q (want eval or train)", mode)
					}
					jobs = append(jobs, Job{
						Index: len(jobs), Workload: wl, Arch: ar,
						Minibatch: mb, Mode: mode, Iters: iters,
					})
				}
			}
		}
	}
	return jobs, nil
}

// cellKey is the semantic identity of a grid point: two jobs with equal keys
// run the same simulation (workload construction, chip config, inputs and
// program are all deterministic functions of the key), so their results are
// interchangeable. Iterations are normalized out for eval cells, which
// always run one pass regardless of Grid.Iterations.
type cellKey struct {
	Workload, Arch string
	Minibatch      int
	Mode           string
	Iters          int
}

func (j Job) cellKey() cellKey {
	iters := j.Iters
	if j.Mode != "train" {
		iters = 1
	}
	return cellKey{
		Workload:  strings.ToLower(j.Workload),
		Arch:      strings.ToLower(j.Arch),
		Minibatch: j.Minibatch,
		Mode:      j.Mode,
		Iters:     iters,
	}
}

// cellClasses groups jobs into equivalence classes in job order: members are
// job indices sorted ascending, and classes are ordered by their first
// member, so the memoized path visits work in the same order as the full
// one.
func cellClasses(jobs []Job) [][]int {
	var classes [][]int
	index := map[cellKey]int{}
	for _, j := range jobs {
		k := j.cellKey()
		ci, ok := index[k]
		if !ok {
			ci = len(classes)
			index[k] = ci
			classes = append(classes, nil)
		}
		classes[ci] = append(classes[ci], j.Index)
	}
	return classes
}

// RunGrid runs every grid point on the cycle-level simulator and returns the
// results in job order. Each job compiles its own program, simulates on a
// pooled per-arch machine and records into its own telemetry registry, so
// jobs shard cleanly across opts.Workers.
//
// Identical grid points (same workload, arch, minibatch, mode and effective
// iterations — e.g. one workload swept against several duplicate axis
// values, or eval cells at different Iterations settings) are memoized:
// one representative per equivalence class is simulated and its result and
// telemetry are replicated to the other members. Jobs are pure functions of
// their spec — inputs come from a spec-seeded PRNG and the simulator is
// deterministic — so replication is exact, and the rendered tables are
// byte-identical with memoization on or off (opts.NoMemo). opts.VerifyMemo
// re-simulates one replicated member per class and fails on any difference.
//
// With opts.Store set, class representatives consult the persistent result
// store before simulating (memory tier, then disk; see store.go and
// DESIGN.md §5f) and write fresh results back, so a repeated sweep across
// process restarts replays from disk with byte-identical tables and merged
// metrics. opts.VerifyStore re-simulates a deterministic sample of hits
// and byte-compares blobs.
func RunGrid(ctx context.Context, g Grid, opts Options) ([]Result, error) {
	jobs, err := g.Jobs()
	if err != nil {
		return nil, err
	}
	pool := newMachinePool()
	// cellContext addresses one deterministic trace lane per unit of work
	// (job index on the no-memo path, class index on the memo path) — each
	// lane written only by the worker that owns the cell, so the assembled
	// trace is independent of worker scheduling.
	cellContext := func(lane int, job Job) telemetry.TraceContext {
		if opts.Trace == nil {
			return telemetry.TraceContext{}
		}
		return opts.Trace.Context(lane, "cell/"+job.Name())
	}
	if opts.NoMemo {
		return Map(ctx, jobs, opts, func(ctx context.Context, _ int, job Job, reg *telemetry.Registry) (Result, error) {
			tc := cellContext(job.Index, job)
			end := tc.Begin("simulate")
			r, err := runJob(job, reg, pool, tc)
			end(telemetry.Attr{Key: "outcome", Value: outcomeOf(err)})
			if err == nil {
				recordJobMetrics(reg, r)
			}
			return r, err
		})
	}

	classes := cellClasses(jobs)
	reps := make([]Job, len(classes))
	for ci, members := range classes {
		reps[ci] = jobs[members[0]]
	}

	// Representatives run through the ordinary pool, but with registry
	// management held locally: each class's registry is merged into
	// opts.Metrics once per member below, so the combined snapshot equals
	// the no-memo merge. Progress is reported in expanded-job units.
	inner := opts
	inner.Metrics, inner.Progress = nil, nil
	var repRegs []*telemetry.Registry
	if opts.Metrics != nil {
		repRegs = make([]*telemetry.Registry, len(classes))
	}
	var (
		progMu   sync.Mutex
		progDone int
	)
	advance := func(n int) {
		if opts.Progress == nil {
			return
		}
		progMu.Lock()
		progDone += n
		opts.Progress(progDone, len(jobs))
		progMu.Unlock()
	}
	repResults, err := Map(ctx, reps, inner, func(ctx context.Context, ci int, job Job, _ *telemetry.Registry) (Result, error) {
		tc := cellContext(ci, job)
		// Disk tier: a representative whose cell is already stored skips
		// simulation entirely. The blob carries the cell's telemetry
		// snapshot, so hits and misses contribute identical metric merges.
		var key string
		if opts.Store != nil {
			k, err := storeKey(job)
			if err != nil {
				return Result{}, err
			}
			key = k
			endGet := tc.Begin("store.get")
			payload, ok, err := opts.Store.Get(key)
			if err != nil {
				endGet(telemetry.Attr{Key: "outcome", Value: "error"})
				return Result{}, err
			}
			if ok {
				r, reg, derr := decodeBlob(job, payload)
				if derr == nil {
					endGet(telemetry.Attr{Key: "outcome", Value: "hit"})
					if opts.VerifyStore && auditHit(key) {
						endVerify := tc.Begin("store.verify")
						verr := verifyStoredHit(job, key, payload, pool)
						endVerify(telemetry.Attr{Key: "outcome", Value: outcomeOf(verr)})
						if verr != nil {
							return Result{}, verr
						}
					}
					if repRegs != nil {
						repRegs[ci] = reg
					}
					advance(len(classes[ci]))
					return r, nil
				}
				// Framing-valid but undecodable (e.g. a schema the key
				// somehow admitted): quarantine and fall through to
				// simulate.
				endGet(telemetry.Attr{Key: "outcome", Value: "quarantined"})
				if qerr := opts.Store.Quarantine(key); qerr != nil {
					return Result{}, qerr
				}
			} else {
				endGet(telemetry.Attr{Key: "outcome", Value: "miss"})
			}
		}
		// Learned fast path: consulted only after the store misses (an
		// exact answer always beats a predicted one). A confident
		// prediction skips simulation and store write-back entirely; a
		// fallback continues on the exact path untouched.
		if opts.Predictor != nil {
			endPredict := tc.Begin("predict")
			if r, ok := predictJob(opts.Predictor, job); ok {
				endPredict(telemetry.Attr{Key: "outcome", Value: "hit"})
				if repRegs != nil {
					repRegs[ci] = telemetry.NewRegistry()
				}
				advance(len(classes[ci]))
				return r, nil
			}
			endPredict(telemetry.Attr{Key: "outcome", Value: "fallback"})
		}
		if opts.Store != nil {
			// The exact path runs under the store's single-flight layer:
			// concurrent jobs racing on this key elect one leader to
			// simulate and persist while the rest share the leader's bytes.
			// A coalesced payload is decoded exactly like a store hit —
			// decode(encode(x)) == x is the §5f round-trip property — so
			// coalescing can change wall-clock time only, never a result.
			var (
				leadResult Result
				leadReg    *telemetry.Registry
			)
			endFlight := tc.Begin("store.flight")
			payload, outcome, err := opts.Store.GetOrCompute(ctx, key, func() ([]byte, error) {
				// The blob always carries the cell's metrics snapshot so it
				// serves future runs that do ask for metrics.
				leadReg = telemetry.NewRegistry()
				endSim := tc.Begin("simulate", telemetry.Attr{Key: "replicas", Value: fmt.Sprint(len(classes[ci]))})
				r, err := runJob(job, leadReg, pool, tc)
				endSim(telemetry.Attr{Key: "outcome", Value: outcomeOf(err)})
				if err != nil {
					return nil, err
				}
				leadResult = r
				p, err := encodeBlob(job, r, leadReg.Snapshot())
				if err != nil {
					return nil, err
				}
				endPut := tc.Begin("store.put")
				err = opts.Store.Put(key, p)
				endPut(telemetry.Attr{Key: "outcome", Value: outcomeOf(err)})
				return p, err
			})
			if err != nil {
				endFlight(telemetry.Attr{Key: "outcome", Value: "error"})
				return Result{}, err
			}
			if outcome == store.FlightCoalesced {
				endFlight(telemetry.Attr{Key: "outcome", Value: "coalesced"})
				r, reg, derr := decodeBlob(job, payload)
				if derr != nil {
					return Result{}, derr
				}
				if repRegs != nil {
					repRegs[ci] = reg
				}
				advance(len(classes[ci]))
				return r, nil
			}
			endFlight(telemetry.Attr{Key: "outcome", Value: "computed"})
			if repRegs != nil {
				repRegs[ci] = leadReg
			}
			advance(len(classes[ci]))
			return leadResult, nil
		}
		var reg *telemetry.Registry
		if repRegs != nil {
			reg = telemetry.NewRegistry()
			repRegs[ci] = reg
		}
		endSim := tc.Begin("simulate", telemetry.Attr{Key: "replicas", Value: fmt.Sprint(len(classes[ci]))})
		r, err := runJob(job, reg, pool, tc)
		endSim(telemetry.Attr{Key: "outcome", Value: outcomeOf(err)})
		if err != nil {
			return r, err
		}
		advance(len(classes[ci]))
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	results := make([]Result, len(jobs))
	for ci, members := range classes {
		for _, ji := range members {
			r := repResults[ci]
			r.Job = jobs[ji] // identity differs; measurements are shared
			results[ji] = r
		}
	}

	if opts.VerifyMemo {
		if err := verifyMemo(ctx, jobs, classes, results, inner, pool); err != nil {
			return nil, err
		}
	}

	if opts.Metrics != nil {
		classOf := make([]int, len(jobs))
		for ci, members := range classes {
			for _, ji := range members {
				classOf[ji] = ci
			}
		}
		for ji, r := range results {
			if err := opts.Metrics.MergeFrom(repRegs[classOf[ji]]); err != nil {
				return nil, err
			}
			recordJobMetrics(opts.Metrics, r)
		}
		if opts.Predictor != nil {
			recordPredictMetrics(opts.Metrics, results)
		}
	}
	return results, nil
}

// verifyMemo re-simulates one replicated (non-representative) member of
// every multi-member class and compares the fresh result against the
// memoized one field by field. Any difference means the memo key admitted
// two jobs that are not actually equivalent — a soundness bug worth failing
// the whole sweep over.
func verifyMemo(ctx context.Context, jobs []Job, classes [][]int, results []Result, opts Options, pool *machinePool) error {
	var checks []Job
	for _, members := range classes {
		// Predicted cells carry an estimate, not a measurement — there is
		// nothing exact to compare a re-simulation against, and the label
		// already declares the row approximate.
		if len(members) > 1 && results[members[0]].Source != SourcePredicted {
			checks = append(checks, jobs[members[1]])
		}
	}
	if len(checks) == 0 {
		return nil
	}
	fresh, err := Map(ctx, checks, opts, func(ctx context.Context, _ int, job Job, _ *telemetry.Registry) (Result, error) {
		return runJob(job, nil, pool, telemetry.TraceContext{})
	})
	if err != nil {
		return err
	}
	for i, f := range fresh {
		if got := results[f.Index]; f != got {
			return fmt.Errorf("sweep: memo verification failed for %s: fresh run %+v != memoized %+v (check %d)",
				f.Name(), f, got, i)
		}
	}
	return nil
}

// recordJobMetrics adds the per-job labeled series derived from one result.
// It runs outside runJob so the memoized path can attribute a replicated
// result to the replica's own job label.
func recordJobMetrics(reg *telemetry.Registry, r Result) {
	if reg == nil {
		return
	}
	// Per-job labeled metrics survive the merge individually (the unlabeled
	// sim.* series aggregate across the whole sweep).
	lbl := telemetry.Label{Key: "job", Value: r.Name()}
	reg.Counter("sweep.job.cycles", lbl).Add(r.Cycles)
	reg.Counter("sweep.jobs").Inc()
}

// machinePool recycles simulator machines per chip configuration: a worker
// picking up a job of an arch it (or another worker) has already simulated
// reuses the retired machine's scratchpads, event queue and arena via
// Machine.Reset instead of reallocating them. The pool never holds more
// machines per arch than ran concurrently.
type machinePool struct {
	mu   sync.Mutex
	free map[string][]*sim.Machine
}

func newMachinePool() *machinePool {
	return &machinePool{free: map[string][]*sim.Machine{}}
}

// get returns a reset machine for the arch, reusing a pooled one when
// available. Reset restores the exact post-NewMachine state (buffers zeroed,
// capacity retained), so results are independent of reuse history.
func (p *machinePool) get(key string, chip arch.ChipConfig, prec arch.Precision) *sim.Machine {
	p.mu.Lock()
	l := p.free[key]
	if n := len(l); n > 0 {
		m := l[n-1]
		p.free[key] = l[:n-1]
		p.mu.Unlock()
		m.Reset()
		return m
	}
	p.mu.Unlock()
	return sim.NewMachine(chip, prec, true)
}

func (p *machinePool) put(key string, m *sim.Machine) {
	p.mu.Lock()
	p.free[key] = append(p.free[key], m)
	p.mu.Unlock()
}

// buildWorkload constructs a fresh network for a catalog entry. Every call
// returns a new DAG so parallel jobs never share layer state.
func buildWorkload(name string) (*dnn.Network, error) {
	switch strings.ToLower(name) {
	case "simnet": // sdsim's demo network
		b := dnn.NewBuilder("simnet")
		in := b.Input(3, 12, 12)
		c1 := b.Conv(in, "c1", 6, 3, 1, 1, tensor.ActReLU)
		p1 := b.MaxPool(c1, "s1", 2, 2)
		c2 := b.Conv(p1, "c2", 8, 3, 1, 1, tensor.ActTanh)
		b.FC(c2, "f1", 10, tensor.ActNone)
		return b.Build(), nil
	case "trainnet": // sdtrain's demo network
		b := dnn.NewBuilder("trainnet")
		in := b.Input(2, 10, 10)
		c1 := b.Conv(in, "c1", 4, 3, 1, 1, tensor.ActTanh)
		p1 := b.MaxPool(c1, "s1", 2, 2)
		b.FC(p1, "f1", 4, tensor.ActNone)
		return b.Build(), nil
	case "minivgg": // sdprof's reference workload
		return zoo.MiniVGG(), nil
	case "fcnet": // FC-heavy stack (classifier-style layer balance)
		b := dnn.NewBuilder("fcnet")
		in := b.Input(1, 8, 8)
		f1 := b.FC(in, "f1", 32, tensor.ActReLU)
		f2 := b.FC(f1, "f2", 16, tensor.ActTanh)
		b.FC(f2, "f3", 10, tensor.ActNone)
		return b.Build(), nil
	}
	return nil, fmt.Errorf("sweep: unknown workload %q (want %s)", name, strings.Join(Workloads(), ", "))
}

// chipFor maps an arch name to the simulated chip configuration and
// datapath precision. The chip is cut down to the same 3-row grid the CLI
// tools simulate so one job fits comfortably in a test run.
func chipFor(name string) (arch.ChipConfig, arch.Precision, error) {
	switch strings.ToLower(name) {
	case "baseline":
		chip := arch.Baseline().Cluster.Conv
		chip.Rows, chip.Cols = 3, 8
		return chip, arch.Single, nil
	case "half":
		chip := arch.HalfPrecision().Cluster.Conv
		chip.Rows, chip.Cols = 3, 8
		return chip, arch.Half, nil
	}
	return arch.ChipConfig{}, 0, fmt.Errorf("sweep: unknown arch %q (want %s)", name, strings.Join(Archs(), ", "))
}

// outcomeOf renders an error as a span outcome attribute value.
func outcomeOf(err error) string {
	if err != nil {
		return "error"
	}
	return "ok"
}

// runJob compiles and simulates one grid point. Inputs are seeded from the
// same fixed PRNG stream per job spec, so a job's result depends only on its
// spec — never on which worker ran it or when. That purity is what both the
// cross-parallelism determinism guarantee and cell memoization rest on.
//
// tc, when enabled, receives the simulator's per-tile op spans into the
// cell's trace lane (cycle timestamps on "comp[...]"/"mem[...]" tracks under
// the lane prefix). Cycle streams are deterministic per spec, so traced
// spans never break cross-parallelism determinism.
func runJob(job Job, reg *telemetry.Registry, pool *machinePool, tc telemetry.TraceContext) (Result, error) {
	fail := func(err error) (Result, error) {
		return Result{}, fmt.Errorf("sweep: %s: %w", job.Name(), err)
	}
	net, err := buildWorkload(job.Workload)
	if err != nil {
		return Result{}, err
	}
	chip, prec, err := chipFor(job.Arch)
	if err != nil {
		return Result{}, err
	}
	train := job.Mode == "train"
	iters := 1
	if train {
		iters = job.Iters
	}
	c, err := compiler.Compile(net, chip, compiler.Options{
		Minibatch: job.Minibatch, Iterations: iters, Training: train, LR: 0.0625,
	})
	if err != nil {
		return fail(err)
	}
	poolKey := strings.ToLower(job.Arch)
	m := pool.get(poolKey, chip, prec)
	defer pool.put(poolKey, m)
	if reg != nil {
		m.SetMetrics(reg)
	}
	if tc.Enabled() {
		m.SetSpanSink(tc)
	}
	if err := c.Install(m); err != nil {
		return fail(err)
	}
	e := dnn.NewExecutor(net, 1)
	e.NoBias = true
	if err := c.LoadWeights(m, e); err != nil {
		return fail(err)
	}
	inShape := net.Layers[0].Out
	outElems := net.OutputLayer().Out.Elems()
	rng := tensor.NewRNG(7)
	inputs := make([]*tensor.Tensor, job.Minibatch)
	golden := make([]*tensor.Tensor, job.Minibatch)
	for i := range inputs {
		inputs[i] = tensor.New(inShape.C, inShape.H, inShape.W)
		rng.FillUniform(inputs[i], 1)
		golden[i] = tensor.New(outElems)
		rng.FillUniform(golden[i], 1)
	}
	if err := c.LoadInputs(m, inputs); err != nil {
		return fail(err)
	}
	if train {
		if err := c.LoadGolden(m, golden); err != nil {
			return fail(err)
		}
	}
	st, err := m.Run()
	if err != nil {
		return fail(err)
	}
	var checksum float32
	for _, v := range c.ReadOutput(m, job.Minibatch-1) {
		checksum += v
	}
	attr := st.AttrTotal()
	return Result{
		Job:          job,
		Cycles:       int64(st.Cycles),
		Instructions: st.Instructions,
		FLOPs:        st.FLOPs,
		PEUtil:       st.PEUtilization(),
		CompMemBytes: st.CompMemBytes,
		MemMemBytes:  st.MemMemBytes,
		ExtMemBytes:  st.ExtMemBytes,
		NACKs:        st.NACKs,
		Checksum:     checksum,
		AttrCompute:  int64(attr[sim.AttrCompute]),
		AttrDMAWait:  int64(attr[sim.AttrDMAWait]),
		AttrTracker:  int64(attr[sim.AttrTrackNACK] + attr[sim.AttrTrackWait]),
		AttrLink:     int64(attr[sim.AttrLinkContend]),
		AttrOther:    int64(attr[sim.AttrDrain] + attr[sim.AttrIdle]),
		Source:       SourceExact,
	}, nil
}
