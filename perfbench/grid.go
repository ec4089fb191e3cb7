package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"scaledeep/internal/store"
	"scaledeep/internal/sweep"
)

// gridPassOut is one sweep pass as a user of the sweep package sees it:
// open a store, run the grid, render the table, close the store.
type gridPassOut struct {
	csv     []byte
	results []sweep.Result
	latMS   []float64 // per cell: pass start to the Progress call reporting it
	total   time.Duration
	stats   store.Stats
}

// passStats is what the traced run needs of a pass; the loop keeps only
// this, so the benchmark's own memory does not grow with the pass count.
type passStats struct {
	total time.Duration
	store store.Stats
}

// gridPass runs g through sweep.RunGrid against the store in dir, with
// workers = GOMAXPROCS.
func gridPass(ctx context.Context, g sweep.Grid, dir string) (gridPassOut, error) {
	var out gridPassOut
	start := time.Now()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return out, err
	}
	res, err := sweep.RunGrid(ctx, g, sweep.Options{
		Store: st,
		// Progress calls are serialized, so the closure needs no lock.
		Progress: func(done, _ int) {
			at := ms(time.Since(start))
			for len(out.latMS) < done {
				out.latMS = append(out.latMS, at)
			}
		},
	})
	if err != nil {
		st.Close()
		return out, err
	}
	var buf bytes.Buffer
	if err := sweep.WriteCSV(&buf, res); err != nil {
		st.Close()
		return out, err
	}
	out.stats = st.Stats()
	if err := st.Close(); err != nil {
		return out, err
	}
	out.total = time.Since(start)
	out.csv, out.results = buf.Bytes(), res
	return out, nil
}

func sameBytes(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: %d bytes differ from the %d-byte reference", what, len(got), len(want))
	}
	return nil
}

func sumCycles(results []sweep.Result) int64 {
	var n int64
	for _, r := range results {
		n += r.Cycles
	}
	return n
}

// gridLoop runs passes for the measured window. newDir gives each pass its
// store directory and done (if non-nil) disposes of it after the pass.
// Every pass's table must equal ref. A grid workload's jobs are its cells:
// each completes when RunGrid's Progress reports it.
func gridLoop(e *env, g sweep.Grid, ref []byte, newDir func() (string, error), done func(string)) (*window, []passStats, error) {
	var passes []passStats
	a0 := totalAlloc()
	w := openWindow(e.window)
	for w.remaining() {
		dir, err := newDir()
		if err != nil {
			w.close()
			return nil, nil, err
		}
		at := time.Since(w.start)
		p, err := gridPass(e.ctx, g, dir)
		if done != nil {
			done(dir)
		}
		if err == nil {
			err = sameBytes("pass table", p.csv, ref)
		}
		e.tally.check(err)
		if err != nil {
			continue
		}
		passes = append(passes, passStats{total: p.total, store: p.stats})
		perCell := float64(sumCycles(p.results)) / float64(len(p.results))
		for _, lat := range p.latMS {
			w.done = append(w.done, completion{at: at + time.Duration(lat*1e6), latMS: lat, cells: 1, cycles: perCell})
		}
	}
	w.alloc = totalAlloc() - a0
	if err := w.close(); err != nil {
		return nil, nil, err
	}
	if len(passes) == 0 {
		return nil, nil, fmt.Errorf("no pass completed in the window")
	}
	return w, passes, nil
}

// runGridCold: repeated passes of one grid, each into a fresh empty store,
// so every cell compiles, simulates and is written.
func runGridCold(e *env) (metrics, error) {
	g := coldGrid(e.seed)
	t0 := time.Now()
	var (
		ref   []byte
		setup []float64
	)
	fresh := func() (string, error) { return e.tempDir() }
	remove := func(dir string) { os.RemoveAll(dir) }
	// Set-up is the warm-up: untimed passes on throwaway stores, because
	// the first pass in a fresh process runs up to twice as long as later
	// ones. The first pass's table is the reference every later pass must
	// reproduce byte for byte.
	for i := 0; i < setupReps; i++ {
		s := time.Now()
		dir, err := fresh()
		if err != nil {
			return nil, err
		}
		p, err := gridPass(e.ctx, g, dir)
		remove(dir)
		if err != nil {
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
		setup = append(setup, time.Since(s).Seconds())
		if ref == nil {
			ref = p.csv
		} else {
			e.tally.check(sameBytes("warm-up table", p.csv, ref))
		}
	}
	w, passes, err := gridLoop(e, g, ref, fresh, remove)
	if err != nil {
		return nil, err
	}
	if !e.trace {
		return w.endToEnd(setup, e.tally)
	}
	runS := time.Since(t0).Seconds()
	return gridLayers(e, g, ref, passes, runS)
}

// runGridWarm: the same grid with duplicated axis values, populated once at
// set-up; each pass opens the populated store on a new handle (so reads
// come from disk), runs the grid, renders and closes. No cell simulates.
func runGridWarm(e *env) (metrics, error) {
	g := warmGrid(e.seed)
	t0 := time.Now()
	var (
		ref   []byte
		dir   string
		setup []float64
	)
	for i := 0; i < setupReps; i++ {
		s := time.Now()
		d, err := e.tempDir()
		if err != nil {
			return nil, err
		}
		p, err := gridPass(e.ctx, g, d)
		if err != nil {
			return nil, fmt.Errorf("populating pass: %w", err)
		}
		setup = append(setup, time.Since(s).Seconds())
		if ref == nil {
			ref = p.csv
		} else {
			e.tally.check(sameBytes("populating table", p.csv, ref))
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = d
	}
	w, passes, err := gridLoop(e, g, ref, func() (string, error) { return dir, nil }, nil)
	if err != nil {
		return nil, err
	}
	if !e.trace {
		return w.endToEnd(setup, e.tally)
	}
	runS := time.Since(t0).Seconds()
	return gridLayers(e, g, ref, passes, runS)
}

// gridLayers is a grid workload's traced half: figures from the passes it
// just ran, then the layer probe over its grid.
func gridLayers(e *env, g sweep.Grid, ref []byte, passes []passStats, runS float64) (metrics, error) {
	probeStart := time.Now()
	m := metrics{}
	var st store.Stats
	passMS := make([]float64, len(passes))
	for i, p := range passes {
		passMS[i] = ms(p.total)
		st.MemHits += p.store.MemHits
		st.DiskHits += p.store.DiskHits
		st.Misses += p.store.Misses
		st.Coalesced += p.store.Coalesced
	}
	setStoreStats(m, st)
	m.set("sweep.pass_ms", "ms", median(passMS))
	cells, err := gridCells(g)
	if err != nil {
		return nil, err
	}
	m.set("sweep.distinct_frac", "ratio", float64(len(distinct(cells)))/float64(len(cells)))

	warm, err := probeLayers(e, []sweep.Grid{g}, m)
	if err != nil {
		return nil, err
	}
	if err := probeServer(e, warm, g, ref, m); err != nil {
		return nil, err
	}
	if err := probePredictor(e, nil, m); err != nil {
		return nil, err
	}
	m.set("trace.overhead_frac", "ratio", time.Since(probeStart).Seconds()/runS)
	return m, nil
}

// setStoreStats reports the store's lookup outcomes over the loop.
func setStoreStats(m metrics, st store.Stats) {
	lookups := float64(st.MemHits + st.DiskHits + st.Misses)
	if lookups == 0 {
		lookups = 1
	}
	m.set("store.hit_frac", "ratio", float64(st.MemHits+st.DiskHits)/lookups)
	m.set("store.coalesced_frac", "ratio", float64(st.Coalesced)/lookups)
}
