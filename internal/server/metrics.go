package server

import (
	"io"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/wal"
)

// writeWALMetrics appends the daemon's durability families to a
// /metrics response, after the engine's own exposition. Everything is
// per shard (shard == tenant), matching the engine's label scheme,
// except the daemon-wide durable checkpoint counter — named apart from
// the engine's per-shard supervision checkpoints so the combined
// scrape stays one valid exposition.
func (s *Server) writeWALMetrics(w io.Writer) {
	x := metrics.NewWriter(w)
	x.Header("treecache_durable_checkpoints_total", "counter",
		"Durably committed checkpoints since boot (each truncates the WALs).")
	x.Int("treecache_durable_checkpoints_total", nil, s.ckpts.Load())
	if s.wals == nil {
		return
	}
	stats := make([]walStats, len(s.wals))
	for i, l := range s.wals {
		stats[i] = walStats{
			labels:   []metrics.Label{{Key: "shard", Value: strconv.Itoa(i)}},
			st:       l.Stats(),
			replayed: s.replayed[i],
		}
	}
	// Each family is one contiguous block: its header, then every shard.
	family := func(name, typ, help string, field func(walStats) int64) {
		x.Header(name, typ, help)
		for _, w := range stats {
			x.Int(name, w.labels, field(w))
		}
	}
	family("treecache_wal_records_total", "counter",
		"WAL records appended since boot.",
		func(w walStats) int64 { return w.st.Records })
	family("treecache_wal_bytes_total", "counter",
		"WAL bytes written since boot, record headers included.",
		func(w walStats) int64 { return w.st.Bytes })
	family("treecache_wal_fsyncs_total", "counter",
		"Group-commit fsyncs completed; each may cover many records.",
		func(w walStats) int64 { return w.st.Syncs })
	family("treecache_wal_fsync_errors_total", "counter",
		"Failed fsyncs; any failure poisons the shard's log until restart.",
		func(w walStats) int64 { return w.st.SyncErrs })
	family("treecache_wal_size_bytes", "gauge",
		"Current WAL file size (falls to zero at each checkpoint).",
		func(w walStats) int64 { return w.st.Size })
	family("treecache_wal_recovered_records", "gauge",
		"Valid records found in the log at the last startup.",
		func(w walStats) int64 { return w.st.Recovered })
	family("treecache_wal_replayed_records", "gauge",
		"Records the last startup replayed into the engine (recovered minus checkpoint-superseded duplicates).",
		func(w walStats) int64 { return w.replayed })
	family("treecache_wal_truncated_bytes", "gauge",
		"Torn/corrupt tail bytes the last startup truncated away.",
		func(w walStats) int64 { return w.st.TruncatedBytes })
	x.Header("treecache_wal_fsync_latency_ns", "histogram",
		"Wall time of each group-commit fsync, nanoseconds.")
	for i := range stats {
		x.Histogram("treecache_wal_fsync_latency_ns", stats[i].labels, &stats[i].st.SyncLatency)
	}
	x.Header("treecache_wal_fsync_latency_ns_quantile", "gauge",
		"Group-commit fsync latency quantiles, nanoseconds.")
	for i := range stats {
		x.Quantiles("treecache_wal_fsync_latency_ns_quantile", stats[i].labels,
			&stats[i].st.SyncLatency, 0.5, 0.99)
	}
}

// walStats is one shard's WAL counters, replay count and labels, read
// once per scrape.
type walStats struct {
	labels   []metrics.Label
	st       wal.Stats
	replayed int64
}
