package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is the fewest samples a percentile may have beyond it: a tail
// estimated from fewer moves with a single slow sample.
const minTail = 10

// percentile returns the p-th percentile (0 < p < 100) of samples,
// interpolating linearly between order statistics. It refuses when fewer
// than minTail samples lie beyond the percentile.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if beyond := float64(n) * (100 - p) / 100; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %.1f beyond it, want at least %d", p, n, beyond, minTail)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo+1 >= n {
		return s[n-1], nil
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo]), nil
}

// median is the middle of samples (mean of the middle two for even n);
// it needs no tail, so it serves small counts such as set-up repeats.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// totalAlloc is the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// procStatusMB reads a kB-valued field (such as "VmRSS:") of
// /proc/self/status, in MB.
func procStatusMB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no %s line in /proc/self/status", field)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// metrics collects a run's figures by name.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// tally counts checked operations: attempted, and how many failed a check.
type tally struct {
	attempted, failed int
}

// check records one operation; a non-nil err is a failure, logged once.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= 5 {
			fmt.Fprintln(os.Stderr, "check failed:", err)
		}
	}
}

func (t tally) okFrac() float64 { return float64(t.attempted-t.failed) / float64(t.attempted) }
