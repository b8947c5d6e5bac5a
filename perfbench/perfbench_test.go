package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}, {0.25, 3.25},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{4}, 0.9); got != 4 {
		t.Errorf("percentile of one sample = %v, want 4", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4, 4, 2}, [3]float64{1.8125, 3.75, 5.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || math.Abs(q1-c.want[0]) > 1e-12 || math.Abs(q2-c.want[1]) > 1e-12 || math.Abs(q3-c.want[2]) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v %v, want %v", c.xs, q1, q2, q3, ok, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
}

func TestParseCacheSize(t *testing.T) {
	for in, want := range map[string]int64{"307200K": 300 << 20, "4M": 4 << 20, "1G": 1 << 30, "512": 512} {
		if got, err := parseCacheSize(in); err != nil || got != want {
			t.Errorf("parseCacheSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
}

func TestRequestGenerator(t *testing.T) {
	encode := func(seed int64, round int) []byte {
		data, err := json.Marshal(genRequests(seed, round))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(encode(7, 0), encode(7, 0)) {
		t.Error("the same seed and round give different request lists")
	}
	if bytes.Equal(encode(7, 0), encode(8, 0)) {
		t.Error("different seeds give the same request list")
	}
	if bytes.Equal(encode(7, 0), encode(7, 1)) {
		t.Error("different rounds give the same submission order")
	}

	reqs := genRequests(7, 0)
	keys, err := distinctKeys(reqs)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	tenants := map[int]map[string]bool{}
	for _, r := range reqs {
		total += r.NConfigs
		if tenants[r.Base] == nil {
			tenants[r.Base] = map[string]bool{}
		}
		tenants[r.Base][r.Tenant] = true
	}
	if len(reqs) != 36 || keys != 36 || total != 72 {
		t.Errorf("round has %d requests, %d keys, %d distinct; want 36, 72, 36", len(reqs), total, keys)
	}
	for base, ts := range tenants {
		if len(ts) != 2 {
			t.Errorf("base %d submitted by %d tenants, want 2", base, len(ts))
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric names and units the
// program prints in step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no driver", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and
// requires its correctness checks to pass and its result line to carry
// every declared metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about a minute")
	}
	// Keep the traced roofline probe small: 2 x 16 MiB, not 2 x 4 LLC.
	defer func(f func(int64) int64) { axpyArrayBytes = f }(axpyArrayBytes)
	axpyArrayBytes = func(int64) int64 { return 16 << 20 }
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				code := run([]string{"--workload", name, "--seed", "3", "--seconds", "0.5",
					"--trace", trace, "--scratch", t.TempDir()}, &out, &errOut)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if code != 0 {
					t.Fatalf("exit %d\n%s\n%s", code, out.String(), errOut.String())
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(defs) {
					t.Fatalf("result %+v", res)
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s missing or mislabelled: %+v", d.name, m)
					}
				}
			})
		}
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "campaign-cold", "--trace", "2"},
		{"--workload", "campaign-cold", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
