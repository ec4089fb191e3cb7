package main

import (
	"fmt"
	"runtime/debug"
	"time"
)

// The measured window is cut into equal slices, and every rate and the
// peak resident set are the median of their per-slice values, so a stall
// from outside the process moves one slice, not the result. Latency
// percentiles pool the whole window: a slice holds too few passes of a
// grid for a steady percentile of its own.
const slices = 5

// The slices divide the window as it actually ran: a serve-mix client
// stops early if its job sequence runs out, and the window then ends there.

// completion is one job answered during the window.
type completion struct {
	at     time.Duration // since the window opened
	latMS  float64
	cells  int
	cycles float64 // simulated cycles of the answered cells
}

// window is the measured interval and what happened in it.
type window struct {
	start   time.Time
	length  time.Duration // how long to keep starting work
	elapsed time.Duration // how long it ran
	done    []completion
	alloc   uint64 // heap bytes allocated during the window
	rss     *rssSampler
}

// openWindow starts the measured window. It first collects the set-up's
// garbage and returns it to the OS, so the window's resident set is the
// window's own.
func openWindow(length time.Duration) *window {
	debug.FreeOSMemory()
	w := &window{length: length, start: time.Now()}
	w.rss = startRSSSampler(w.start)
	return w
}

func (w *window) remaining() bool { return time.Since(w.start) < w.length }

// close ends the window; completions may still be added (or given their
// cycles) afterwards.
func (w *window) close() error {
	w.elapsed = time.Since(w.start)
	return w.rss.stop()
}

// slice maps a time since the window opened to its slice.
func (w *window) slice(at time.Duration) int {
	return min(int(at*slices/w.elapsed), slices-1)
}

// summary is the window's end-to-end figures.
type summary struct {
	jobsPerS, cellsPerS, cyclesPerS, p50, p90, rssMB float64
}

func (w *window) summarize() (summary, error) {
	var (
		lat                = make([]float64, len(w.done))
		jobs, cells, peaks [slices]float64
		totalCells, cycles float64
		secs               = (w.elapsed / slices).Seconds()
	)
	for k, c := range w.done {
		i := w.slice(c.at)
		jobs[i]++
		cells[i] += float64(c.cells)
		totalCells += float64(c.cells)
		cycles += c.cycles
		lat[k] = c.latMS
	}
	for _, r := range w.rss.samples {
		i := w.slice(r.at)
		peaks[i] = max(peaks[i], r.mb)
	}
	p50, err := percentile(lat, 50)
	if err != nil {
		return summary{}, fmt.Errorf("job_p50_ms: %w", err)
	}
	p90, err := percentile(lat, 90)
	if err != nil {
		return summary{}, fmt.Errorf("job_p90_ms: %w", err)
	}
	cellsPerS := median(cells[:]) / secs
	return summary{
		jobsPerS:  median(jobs[:]) / secs,
		cellsPerS: cellsPerS,
		// The cell rate times the window's mean cycles per cell: which
		// cells land in which slice would otherwise move it.
		cyclesPerS: cellsPerS * cycles / totalCells,
		p50:        p50,
		p90:        p90,
		rssMB:      median(peaks[:]),
	}, nil
}

// endToEnd renders the end-to-end metric set; ok_frac covers every check
// the run made.
func (w *window) endToEnd(setupS []float64, t tally) (metrics, error) {
	s, err := w.summarize()
	if err != nil {
		return nil, err
	}
	var cells int
	for _, c := range w.done {
		cells += c.cells
	}
	m := metrics{}
	m.set("setup_s", "s", median(setupS))
	m.set("cells_per_s", "1/s", s.cellsPerS)
	m.set("sim_cycles_per_s", "1/s", s.cyclesPerS)
	m.set("jobs_per_s", "1/s", s.jobsPerS)
	m.set("job_p50_ms", "ms", s.p50)
	m.set("job_p90_ms", "ms", s.p90)
	m.set("alloc_mb_per_cell", "MB", float64(w.alloc)/(1<<20)/float64(cells))
	m.set("peak_rss_mb", "MB", s.rssMB)
	m.set("ok_frac", "ratio", t.okFrac())
	return m, nil
}

// rssEvery is the resident-set sampling period.
const rssEvery = 10 * time.Millisecond

// rssSampler reads the resident set from /proc/self/status every
// rssEvery; each slice's peak is the highest reading in it.
type rssSampler struct {
	samples []rssSample
	quit    chan struct{}
	ended   chan error
}

type rssSample struct {
	at time.Duration
	mb float64
}

func startRSSSampler(start time.Time) *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), ended: make(chan error, 1)}
	go func() {
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			mb, err := procStatusMB("VmRSS:")
			if err != nil {
				s.ended <- err
				return
			}
			s.samples = append(s.samples, rssSample{at: time.Since(start), mb: mb})
			select {
			case <-s.quit:
				s.ended <- nil
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and waits for the sampler to exit; samples is safe
// to read once it returns.
func (s *rssSampler) stop() error {
	close(s.quit)
	return <-s.ended
}
