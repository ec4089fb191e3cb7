package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, seed := range []int64{1, 7, 123456789} {
		if a, b := coldGrid(seed), coldGrid(seed); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: cold grids differ: %+v vs %+v", seed, a, b)
		}
		if a, b := warmGrid(seed), warmGrid(seed); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: warm grids differ: %+v vs %+v", seed, a, b)
		}
		a, err := newServePlan(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newServePlan(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: serve plans differ", seed)
		}
	}
	a, _ := newServePlan(1)
	b, _ := newServePlan(2)
	if reflect.DeepEqual(a.Clients, b.Clients) {
		t.Fatal("seeds 1 and 2 gave the same job sequence")
	}
}

// Every seed must carry the same load: the grid sizes, the minibatch sum
// and the job mix are fixed, only the details move.
func TestSeedsKeepTheLoad(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		cold, err := gridCells(coldGrid(seed))
		if err != nil {
			t.Fatal(err)
		}
		if n := len(distinct(cold)); len(cold) != 64 || n != 64 {
			t.Fatalf("seed %d: cold grid has %d cells, %d distinct; want 64", seed, len(cold), n)
		}
		sum := 0
		for _, mb := range coldGrid(seed).Minibatches {
			sum += mb
		}
		if sum != 16 {
			t.Fatalf("seed %d: cold minibatches sum to %d, want 16", seed, sum)
		}
		warm, err := gridCells(warmGrid(seed))
		if err != nil {
			t.Fatal(err)
		}
		if n := len(distinct(warm)); len(warm) != 256 || n != 64 {
			t.Fatalf("seed %d: warm grid has %d cells, %d distinct; want 256 and 64", seed, len(warm), n)
		}

		p, err := newServePlan(seed)
		if err != nil {
			t.Fatal(err)
		}
		for c, jobs := range p.Clients {
			if len(jobs) != maxClientJob {
				t.Fatalf("seed %d client %d: %d jobs, want %d: the novel pool ran out", seed, c, len(jobs), maxClientJob)
			}
			count := map[string]int{}
			for _, j := range jobs[100:200] { // a whole block past the start
				count[j.Kind]++
			}
			want := map[string]int{kindHot: hotPerBlock, kindNovel: novelPerBlock, kindDup: dupPerBlock, kindPredict: predictPerBlock}
			if !reflect.DeepEqual(count, want) {
				t.Fatalf("seed %d client %d: block mix %v, want %v", seed, c, count, want)
			}
		}
	}
}

func TestPredictCellsDisjointFromExactCells(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p, err := newServePlan(seed)
		if err != nil {
			t.Fatal(err)
		}
		predict := map[cell]bool{}
		for _, c := range p.Predict {
			predict[c] = true
		}
		train, err := gridCells(p.Train)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range append(train, p.Hot...) {
			if predict[c] {
				t.Fatalf("seed %d: predict cell %v is also pre-populated", seed, c)
			}
		}
		for c := range p.Novel {
			if predict[c] {
				t.Fatalf("seed %d: predict cell %v is in the novel pool", seed, c)
			}
		}
		seen := map[cell]bool{}
		for _, jobs := range p.Clients {
			for _, j := range jobs {
				if j.Predict != (j.Kind == kindPredict) {
					t.Fatalf("seed %d: %s job has predict=%v", seed, j.Kind, j.Predict)
				}
				if j.Predict && !predict[j.Cell] {
					t.Fatalf("seed %d: predict job asks for %v, outside the predict cells", seed, j.Cell)
				}
				if !j.Predict && predict[j.Cell] {
					t.Fatalf("seed %d: exact %s job asks for predict cell %v", seed, j.Kind, j.Cell)
				}
				if j.Kind == kindNovel {
					if seen[j.Cell] {
						t.Fatalf("seed %d: novel cell %v asked for twice", seed, j.Cell)
					}
					seen[j.Cell] = true
				}
			}
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		return s
	}
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{99, 90, false}, {100, 90, true},
		{19, 50, false}, {20, 50, true},
		{999, 99, false}, {1000, 99, true},
		{0, 50, false},
	} {
		_, err := percentile(samples(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d samples: err=%v, want ok=%v", tc.p, tc.n, err, tc.ok)
		}
	}
	if got, err := percentile(samples(101), 90); err != nil || got != 90 {
		t.Errorf("p90 of 0..100 = %v, %v; want 90", got, err)
	}
}

// The metric names the code sets must be exactly those BENCHMARK.json
// declares, and every one must match the allowed pattern.
func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		declared = append(declared, m.Name)
	}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	set := regexp.MustCompile(`\.set\("([^"]+)"`)
	seen := map[string]bool{}
	var used []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range set.FindAllSubmatch(src, -1) {
			if name := string(m[1]); !seen[name] {
				seen[name] = true
				used = append(used, name)
			}
		}
	}
	sort.Strings(declared)
	sort.Strings(used)
	if !reflect.DeepEqual(declared, used) {
		t.Fatalf("BENCHMARK.json declares %v\nthe code sets %v", declared, used)
	}
	for _, name := range used {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, metricName)
		}
	}
}

// endToEnd must emit every end-to-end metric from a plain window.
func TestWindowEmitsEndToEnd(t *testing.T) {
	w := &window{length: time.Second, elapsed: time.Second, rss: &rssSampler{}, alloc: 1 << 20}
	for i := 0; i < 1000; i++ {
		w.done = append(w.done, completion{at: time.Duration(i) * time.Millisecond, latMS: float64(i % 100), cells: 1, cycles: 10})
	}
	m, err := w.endToEnd([]float64{1, 2, 3}, tally{attempted: 4, failed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m["jobs_per_s"].Value; got != 1000 {
		t.Errorf("jobs_per_s = %v, want 1000", got)
	}
	if got := m["ok_frac"].Value; got != 0.75 {
		t.Errorf("ok_frac = %v, want 0.75", got)
	}
	if got := m["setup_s"].Value; got != 2 {
		t.Errorf("setup_s = %v, want 2", got)
	}
	if len(m) != 9 {
		t.Errorf("%d end-to-end metrics, want 9: %v", len(m), m)
	}
}
