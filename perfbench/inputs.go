package main

import (
	"math/rand/v2"
	"sort"

	"scaledeep/internal/sweep"
)

// This file turns a seed into the benchmark's inputs. The program under
// test never sees the seed: it receives only the grids and job specs made
// here. Every generator holds the amount of work fixed and lets the seed
// choose the details, so runs with different seeds measure the same load.

// cell is one grid point in normalized form (eval cells always run one
// iteration, so their Iters is 1).
type cell struct {
	Workload string
	Arch     string
	MB       int
	Mode     string
	Iters    int
}

func newCell(workload, arch string, mb int, mode string, iters int) cell {
	if mode != "train" {
		iters = 1
	}
	return cell{Workload: workload, Arch: arch, MB: mb, Mode: mode, Iters: iters}
}

// grid is the one-cell sweep grid that asks for c.
func (c cell) grid() sweep.Grid {
	return sweep.Grid{
		Workloads: []string{c.Workload}, Archs: []string{c.Arch},
		Minibatches: []int{c.MB}, Modes: []string{c.Mode}, Iterations: c.Iters,
	}
}

// gridCells lists g's cells in job order, normalized.
func gridCells(g sweep.Grid) ([]cell, error) {
	jobs, err := g.Jobs()
	if err != nil {
		return nil, err
	}
	cells := make([]cell, len(jobs))
	for i, j := range jobs {
		cells[i] = newCell(j.Workload, j.Arch, j.Minibatch, j.Mode, j.Iters)
	}
	return cells, nil
}

// distinct returns the cells in first-seen order without repeats.
func distinct(cells []cell) []cell {
	seen := map[cell]bool{}
	var out []cell
	for _, c := range cells {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// Stream numbers keep the generators independent: changing how one
// workload draws does not shift another's inputs.
const (
	streamCold = iota + 1
	streamWarm
	streamServe
)

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

var modes = []string{"eval", "train"}

// coldMinibatches draws four distinct minibatches from 1..7 whose sum is
// 16, in seeded order. Simulated cycles grow linearly with minibatch, so a
// fixed sum gives every seed the same simulated work (within 0.2%).
func coldMinibatches(r *rand.Rand) []int {
	var sets [][]int
	for a := 1; a <= 7; a++ {
		for b := a + 1; b <= 7; b++ {
			for c := b + 1; c <= 7; c++ {
				for d := c + 1; d <= 7; d++ {
					if a+b+c+d == 16 {
						sets = append(sets, []int{a, b, c, d})
					}
				}
			}
		}
	}
	mbs := append([]int(nil), sets[r.IntN(len(sets))]...)
	r.Shuffle(len(mbs), func(i, j int) { mbs[i], mbs[j] = mbs[j], mbs[i] })
	return mbs
}

// coldGrid is grid-cold's grid: every catalog workload × both archs × four
// seeded minibatches × eval and train, two training iterations — 64
// distinct cells.
func coldGrid(seed int64) sweep.Grid {
	return sweep.Grid{
		Workloads:   sweep.Workloads(),
		Archs:       sweep.Archs(),
		Minibatches: coldMinibatches(newRand(seed, streamCold)),
		Modes:       modes,
		Iterations:  2,
	}
}

// warmGrid is grid-warm's grid: coldGrid with every workload and every
// minibatch listed twice, in seeded order. It has 256 rows over the same 64
// distinct cells, each cell asked for four times, whatever the seed.
func warmGrid(seed int64) sweep.Grid {
	g := coldGrid(seed)
	r := newRand(seed, streamWarm)
	g.Workloads = append(g.Workloads, g.Workloads...)
	g.Minibatches = append(g.Minibatches, g.Minibatches...)
	r.Shuffle(len(g.Workloads), func(i, j int) { g.Workloads[i], g.Workloads[j] = g.Workloads[j], g.Workloads[i] })
	r.Shuffle(len(g.Minibatches), func(i, j int) {
		g.Minibatches[i], g.Minibatches[j] = g.Minibatches[j], g.Minibatches[i]
	})
	return g
}

// Serve-mix job kinds.
const (
	kindHot     = "hot"     // repeat of a pre-populated cell: memory-tier hit
	kindNovel   = "novel"   // a cell not asked for earlier in the run
	kindDup     = "dup"     // the other client's latest novel cell
	kindPredict = "predict" // predict:true over a cell no exact job asks for
)

// serveJob is one POST /jobs request of the closed loop.
type serveJob struct {
	Kind    string
	Cell    cell
	Predict bool
}

// servePlan is everything serve-mix's inputs depend on.
type servePlan struct {
	Train   sweep.Grid    // predictor training grid, populated at set-up
	Hot     []cell        // pre-populated cells the hot jobs repeat
	Predict []cell        // cells only predict:true jobs ask for
	Clients [][]serveJob  // one job sequence per closed-loop client
	Novel   map[cell]bool // the novel pool, for the disjointness test
}

// Serve-mix shape: the number of each job kind in every block of 100
// jobs a client sends, the number of clients and the longest sequence a
// client may run.
const (
	hotPerBlock     = 65
	novelPerBlock   = 20
	dupPerBlock     = 7
	predictPerBlock = 8
	serveClients    = 2
	maxClientJob    = 1900
)

// kindBlock is one client's next 100 job kinds in seeded order. Fixed
// counts per block, rather than a draw per job, give every seed the same
// mix; the percentiles sit where the mix puts them, so a drifting mix
// would move them.
func kindBlock(r *rand.Rand) []string {
	var b []string
	for _, k := range []struct {
		kind string
		n    int
	}{{kindHot, hotPerBlock}, {kindNovel, novelPerBlock}, {kindDup, dupPerBlock}, {kindPredict, predictPerBlock}} {
		for i := 0; i < k.n; i++ {
			b = append(b, k.kind)
		}
	}
	r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// novelBin is the size of the strata stratified draws from.
const novelBin = 12

// stratified orders pool for drawing: sorted by kind of work, cut into
// strata of novelBin similar cells, then drawn in rounds that take one
// cell from every stratum. Any prefix a run consumes then holds each kind
// of cell in proportion, so a seed cannot draw a cheap or a costly run.
func stratified(r *rand.Rand, pool []cell) []cell {
	sorted := append([]cell(nil), pool...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Mode != b.Mode {
			return a.Mode < b.Mode
		}
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Iters != b.Iters {
			return a.Iters < b.Iters
		}
		if a.MB != b.MB {
			return a.MB < b.MB
		}
		return a.Arch < b.Arch
	})
	var bins [][]cell
	for len(sorted) > 0 {
		n := min(novelBin, len(sorted))
		bin := sorted[:n:n]
		r.Shuffle(n, func(i, j int) { bin[i], bin[j] = bin[j], bin[i] })
		bins = append(bins, bin)
		sorted = sorted[n:]
	}
	var out []cell
	for len(out) < len(pool) {
		for _, b := range r.Perm(len(bins)) {
			if len(bins[b]) > 0 {
				out = append(out, bins[b][0])
				bins[b] = bins[b][1:]
			}
		}
	}
	return out
}

// trainGrid is the predictor's training grid (the grid the repository's
// predictor tests fit on): 48 cells at minibatches 1, 2 and 4.
func trainGrid() sweep.Grid {
	return sweep.Grid{
		Workloads: sweep.Workloads(), Archs: sweep.Archs(),
		Minibatches: []int{1, 2, 4}, Modes: modes, Iterations: 2,
	}
}

// novelPool lists the cells novel jobs draw from: cheap eval cells over a
// wide minibatch range and short training runs of the three small nets.
// Every cell costs tens of milliseconds on the exact simulator, so the
// tail a novel job sets does not depend on which cells a seed draws.
// Training stops at four iterations: half-precision simnet and trainnet
// diverge to a NaN checksum at five or six, which the result store cannot
// encode, so such a job fails.
func novelPool(exclude map[cell]bool) []cell {
	var pool []cell
	add := func(c cell) {
		if !exclude[c] {
			pool = append(pool, c)
		}
	}
	small := []string{"simnet", "trainnet", "fcnet"}
	for _, ar := range sweep.Archs() {
		for _, wl := range small {
			last := 56
			if wl != "simnet" { // the cheapest nets stay cheap to 128
				last = 128
			}
			for mb := 5; mb <= last; mb++ {
				add(newCell(wl, ar, mb, "eval", 1))
			}
			for mb := 1; mb <= 8; mb++ {
				for it := 1; it <= 4; it++ {
					add(newCell(wl, ar, mb, "train", it))
				}
			}
		}
		for mb := 5; mb <= 16; mb++ {
			add(newCell("minivgg", ar, mb, "eval", 1))
		}
	}
	return pool
}

// newServePlan builds serve-mix's inputs from the seed. The hot set is a
// seeded 32-cell sub-grid of the training grid; predict cells are the
// minibatch-3 cells, which neither training nor any exact job touches;
// each client draws novel cells from its own half of the stratified pool, so
// the only repeats across clients are the deliberate duplicates.
func newServePlan(seed int64) (servePlan, error) {
	r := newRand(seed, streamServe)
	p := servePlan{Train: trainGrid()}
	train, err := gridCells(p.Train)
	if err != nil {
		return p, err
	}
	hot := p.Train
	keep := r.Perm(3)[:2]
	sort.Ints(keep)
	hot.Minibatches = []int{p.Train.Minibatches[keep[0]], p.Train.Minibatches[keep[1]]}
	if p.Hot, err = gridCells(hot); err != nil {
		return p, err
	}
	predictGrid := p.Train
	predictGrid.Minibatches = []int{3}
	if p.Predict, err = gridCells(predictGrid); err != nil {
		return p, err
	}

	exclude := map[cell]bool{}
	for _, c := range append(train, p.Predict...) {
		exclude[c] = true
	}
	pool := novelPool(exclude)
	p.Novel = map[cell]bool{}
	for _, c := range pool {
		p.Novel[c] = true
	}
	shares := make([][]cell, serveClients)
	for i, c := range stratified(r, pool) {
		shares[i%serveClients] = append(shares[i%serveClients], c)
	}

	p.Clients = make([][]serveJob, serveClients)
	kinds := make([][]string, serveClients)
	last := make([]*cell, serveClients) // each client's latest novel cell
	for i := 0; i < maxClientJob; i++ {
		for c := 0; c < serveClients; c++ {
			if len(kinds[c]) == 0 {
				kinds[c] = kindBlock(r)
			}
			kind := kinds[c][0]
			kinds[c] = kinds[c][1:]
			other := last[(c+1)%serveClients]
			if kind == kindDup && other == nil {
				kind = kindHot // nothing to duplicate yet
			}
			job := serveJob{Kind: kind}
			switch kind {
			case kindHot:
				job.Cell = p.Hot[r.IntN(len(p.Hot))]
			case kindNovel:
				if len(shares[c]) == 0 {
					return p, nil // pool exhausted: the sequence ends here
				}
				job.Cell, shares[c] = shares[c][0], shares[c][1:]
				last[c] = &job.Cell
			case kindDup:
				job.Cell = *other
			case kindPredict:
				job.Cell, job.Predict = p.Predict[r.IntN(len(p.Predict))], true
			}
			p.Clients[c] = append(p.Clients[c], job)
		}
	}
	return p, nil
}
