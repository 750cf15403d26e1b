// Live-telemetry renderers: the same MetricsRegistry/NodeNetStats data the
// post-mortem exporters (export.h) dump at end of run, rendered for live
// consumption — Prometheus text exposition for /metrics scrapes, one-line
// JSON snapshots for --metrics-series-out JSONL trajectories, and the
// NodeNetStats -> registry writer behind both backends' net.* names
// (sim/metal parity).
#pragma once

#include <string>
#include <string_view>

#include "common/net_stats.h"
#include "obs/metrics.h"

namespace marlin::obs {

/// Renders the registry as Prometheus text exposition (version 0.0.4):
/// names are prefixed "marlin_" with non-alphanumerics mangled to '_',
/// "k=v,k=v" label strings become {k="v",...}, counters/gauges map
/// directly, and histograms render as summaries (quantile series plus
/// _sum/_count; latency quantiles are in seconds).
std::string metrics_to_prometheus(const MetricsRegistry& reg);

/// Adds one node's NodeNetStats into `reg`: the one writer of the net.*
/// names on both backends (sim::Network::export_metrics calls it for each
/// node, a metal replica for its transport). `node_label` (e.g. "node=2")
/// labels the five totals; the per-kind series (net.messages_sent{kind=
/// proposal}, ...) carry kind= labels and skip all-zero kinds. Counters
/// add, so calls for several nodes into one registry sum the kind series.
void net_stats_to_metrics(const net::NodeNetStats& stats, MetricsRegistry& reg,
                          std::string_view node_label = {});

/// One JSONL time-series sample: a single-line JSON object
///   {"t":<seconds>,"counters":{...},"gauges":{...},
///    "latency_ms":{name:{count,mean,p50,p95,p99,max}},
///    "sizes":{name:{count,mean,p50,p99,max}}}
/// Keys are MetricKey::to_string() ("name" or "name{label}"). The schema
/// is backend-agnostic: marlin_run emits identical shapes on both backends.
std::string metrics_series_line(double t_seconds, const MetricsRegistry& reg);

}  // namespace marlin::obs
