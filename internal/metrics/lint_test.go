package metrics

import (
	"strings"
	"testing"
)

// TestLintAcceptsWriterOutput: everything Writer emits for well-formed
// families lints clean, histograms and quantile gauges included.
func TestLintAcceptsWriterOutput(t *testing.T) {
	var b strings.Builder
	x := NewWriter(&b)
	var h Histogram
	for _, v := range []int64{1, 5, 5, 300, 70000} {
		h.Record(v)
	}
	shards := [][]Label{{{"shard", "0"}}, {{"shard", "1"}}}
	x.Header("demo_total", "counter", `a "quoted" help`)
	for i, l := range shards {
		x.Int("demo_total", l, int64(i))
	}
	x.Header("demo_latency_ns", "histogram", "latency")
	for _, l := range shards {
		x.Histogram("demo_latency_ns", l, &h)
	}
	x.Header("demo_latency_ns_quantile", "gauge", "quantiles")
	for _, l := range shards {
		x.Quantiles("demo_latency_ns_quantile", l, &h, 0.5, 0.99)
	}
	x.Header("demo_up", "gauge", "")
	x.Int("demo_up", []Label{{"path", `C:\dir "x"`}}, 1)
	if err := Lint(b.String()); err != nil {
		t.Fatalf("Lint rejected Writer output: %v\n%s", err, b.String())
	}
}

// TestLintRejects pins each violation Lint exists to catch.
func TestLintRejects(t *testing.T) {
	cases := map[string]string{
		"duplicate TYPE": "# TYPE a_total counter\na_total{shard=\"0\"} 1\n" +
			"# TYPE a_total counter\na_total 2\n",
		"split family":     "# TYPE a gauge\na{s=\"0\"} 1\n# TYPE b gauge\nb 1\na{s=\"1\"} 2\n",
		"mixed label keys": "# TYPE a gauge\na{shard=\"0\",algorithm=\"TC\"} 1\na{shard=\"1\"} 2\n",
		"decreasing buckets": "# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"2\"} 2\n" +
			"h_bucket{le=\"+Inf\"} 3\nh_sum 4\nh_count 3\n",
		"unordered le": "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\n" +
			"h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"missing +Inf":   "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"count mismatch": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		"bad sample":     "# TYPE a gauge\na{shard=0} 1\n",
		"bad value":      "a 1x\n",
	}
	for name, body := range cases {
		if err := Lint(body); err == nil {
			t.Errorf("%s: Lint accepted\n%s", name, body)
		}
	}
}
