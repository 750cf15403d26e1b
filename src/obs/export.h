// Exporters for the observability subsystem:
//   - JSONL trace dump (one event per line; the trace_inspect input format)
//   - JSON / CSV metrics snapshots
//   - a human-readable per-view timeline printer
// All output is deterministic: fixed field order, fixed float precision,
// ordered-map iteration — identical runs export identical bytes.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace marlin::obs {

/// One event as a single-line JSON object (no trailing newline).
std::string event_to_json(const TraceEvent& e);

/// Full buffered trace, one JSON object per line.
std::string trace_to_jsonl(const TraceSink& sink);
/// Same format from an already-materialized event list (e.g. the sharded
/// engine's deterministic cross-shard merge).
std::string trace_to_jsonl(const std::vector<TraceEvent>& events);

/// 16-digit lowercase hex, the form every export prints block ids in.
std::string fmt_hex64(std::uint64_t v);

/// Minimal string-field extraction from a one-line JSON object (an
/// event_to_json line, a span-export line). Returns false when the key is
/// absent.
bool json_field_str(const std::string& line, const std::string& key,
                    std::string* out);
/// Parses one JSONL line back into an event; false on malformed input.
bool event_from_json(const std::string& line, TraceEvent* out);

/// Metrics snapshot as a JSON document (counters / gauges / histograms).
std::string metrics_to_json(const MetricsRegistry& reg);

/// Metrics snapshot as CSV rows: metric,label,field,value.
std::string metrics_to_csv(const MetricsRegistry& reg);

/// Groups events by view and prints a compact human-readable timeline:
/// per view, the span, leader traffic, phase milestones, and commits.
void print_view_timeline(const std::vector<TraceEvent>& events,
                         std::ostream& out);

/// Writes `content` to `path`; returns false (and leaves a best-effort
/// partial file) on I/O failure.
bool write_text_file(const std::string& path, const std::string& content);
/// Reads all of `path` into `out`; false when it cannot be opened.
bool read_text_file(const std::string& path, std::string* out);

}  // namespace marlin::obs
