// Span stitching and critical-path extraction over real simulated traces:
// Marlin's commit critical path has exactly two network round trips,
// HotStuff's has three (the paper's linearity claim, one round trip
// apart), and both the span export and the critical-path report are
// byte-identical across same-seed runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/critical_path.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "faults/fault_plan.h"
#include "runtime/cluster.h"

namespace marlin {
namespace {

using obs::CostKind;
using obs::CriticalPath;
using obs::EventType;
using obs::TraceEvent;
using runtime::Cluster;
using runtime::ClusterConfig;
using runtime::ProtocolKind;

ClusterConfig tiny_config(ProtocolKind protocol) {
  ClusterConfig cfg;
  cfg.f = 1;
  cfg.consensus.protocol = protocol;
  cfg.clients.count = 2;
  cfg.clients.window = 4;
  cfg.consensus.pipelined = false;
  cfg.seed = 7;
  return cfg;
}

std::vector<TraceEvent> run_traced(ClusterConfig cfg, int secs,
                                   obs::TraceSink* sink) {
  sim::Simulator sim(cfg.seed);
  cfg.trace = sink;
  Cluster cluster(sim, cfg);
  cluster.start();
  sim.run_for(Duration::seconds(secs));
  EXPECT_FALSE(cluster.any_safety_violation());
  return sink->events();
}

const CriticalPath* first_complete(const std::vector<CriticalPath>& paths) {
  for (const CriticalPath& p : paths) {
    if (p.complete) return &p;
  }
  return nullptr;
}

TEST(CriticalPath, MarlinHasTwoRoundTrips) {
  obs::TraceSink sink{1u << 17};
  const auto events = run_traced(tiny_config(ProtocolKind::kMarlin), 3, &sink);
  const auto paths = obs::critical_paths(events);
  const CriticalPath* p = first_complete(paths);
  ASSERT_NE(p, nullptr);
  EXPECT_FALSE(p->three_phase);
  EXPECT_EQ(p->round_trips, 2u);
  // Out and back legs alternate around each QC; the path ends at commit.
  ASSERT_FALSE(p->edges.empty());
  EXPECT_EQ(p->edges.back().label, "decide.out");
  // Every complete path in a Marlin run agrees on the round-trip count.
  for (const CriticalPath& path : paths) {
    if (path.complete) EXPECT_EQ(path.round_trips, 2u);
  }
}

TEST(CriticalPath, HotStuffHasThreeRoundTrips) {
  obs::TraceSink sink{1u << 17};
  const auto events =
      run_traced(tiny_config(ProtocolKind::kHotStuff), 3, &sink);
  const auto paths = obs::critical_paths(events);
  const CriticalPath* p = first_complete(paths);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->three_phase);
  EXPECT_EQ(p->round_trips, 3u);
}

TEST(CriticalPath, MarlinSavesExactlyOneRoundTrip) {
  obs::TraceSink msink{1u << 17};
  obs::TraceSink hsink{1u << 17};
  const auto m = run_traced(tiny_config(ProtocolKind::kMarlin), 3, &msink);
  const auto h = run_traced(tiny_config(ProtocolKind::kHotStuff), 3, &hsink);
  const auto mpaths = obs::critical_paths(m);
  const auto hpaths = obs::critical_paths(h);
  const CriticalPath* mp = first_complete(mpaths);
  const CriticalPath* hp = first_complete(hpaths);
  ASSERT_NE(mp, nullptr);
  ASSERT_NE(hp, nullptr);
  EXPECT_EQ(hp->round_trips, mp->round_trips + 1);
  // One fewer 40 ms round trip is visible in the totals too.
  EXPECT_LT(mp->total.as_millis_f(), hp->total.as_millis_f());
}

TEST(CriticalPath, NetworkEdgesAreWireDominatedOnThePaperTestbed) {
  obs::TraceSink sink{1u << 17};
  const auto events = run_traced(tiny_config(ProtocolKind::kMarlin), 3, &sink);
  const auto paths = obs::critical_paths(events);
  const CriticalPath* p = first_complete(paths);
  ASSERT_NE(p, nullptr);
  for (const auto& e : p->edges) {
    if (!e.network) continue;
    // 40 ms propagation dwarfs queueing and crypto at this scale.
    EXPECT_EQ(e.dominant, CostKind::kLink) << e.label;
    EXPECT_GT(e.wire.as_millis_f(), 39.0) << e.label;
    // The decomposition accounts for the whole edge.
    const double sum_ms = (e.queue + e.wire + e.cpu).as_millis_f();
    EXPECT_NEAR(sum_ms, e.duration().as_millis_f(), 0.001) << e.label;
  }
}

TEST(Spans, CommittedBlockHasFullLifecycle) {
  obs::TraceSink sink{1u << 17};
  const auto events = run_traced(tiny_config(ProtocolKind::kMarlin), 3, &sink);
  const auto blocks = obs::build_spans(events);
  ASSERT_FALSE(blocks.empty());
  const obs::BlockSpans* committed = nullptr;
  for (const auto& b : blocks) {
    if (b.committed) {
      committed = &b;
      break;
    }
  }
  ASSERT_NE(committed, nullptr);
  // The umbrella covers every child and children appear in causal order.
  std::vector<std::string> names;
  for (const auto& s : committed->children) {
    names.push_back(s.name);
    EXPECT_GE(s.begin, committed->umbrella.begin) << s.name;
    EXPECT_LE(s.end, committed->umbrella.end) << s.name;
    EXPECT_LE(s.begin, s.end) << s.name;
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "proposal.broadcast"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "votes.prepare"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "votes.commit"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "commit.spread"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "reply.delivery"),
            names.end());
}

TEST(Spans, SameSeedOutputsAreByteIdentical) {
  obs::TraceSink a{1u << 17};
  obs::TraceSink b{1u << 17};
  const auto ea = run_traced(tiny_config(ProtocolKind::kMarlin), 3, &a);
  const auto eb = run_traced(tiny_config(ProtocolKind::kMarlin), 3, &b);
  EXPECT_EQ(obs::spans_to_chrome_json(obs::build_spans(ea)),
            obs::spans_to_chrome_json(obs::build_spans(eb)));
  EXPECT_EQ(obs::critical_path_report(ea), obs::critical_path_report(eb));
}

TEST(Spans, ReportMentionsRoundTripCounts) {
  obs::TraceSink sink{1u << 17};
  const auto events = run_traced(tiny_config(ProtocolKind::kMarlin), 3, &sink);
  const std::string report = obs::critical_path_report(events);
  EXPECT_NE(report.find("network round trips: 2"), std::string::npos);
  EXPECT_NE(report.find("== marlin (two-phase) =="), std::string::npos);
}

// FNV-1a over the analysis output: a compact pin for bytes that must not
// move when the span and critical-path analyses are refactored.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(Spans, AnalysisBytesArePinned) {
  ClusterConfig crash = tiny_config(ProtocolKind::kMarlin);
  crash.consensus.pacemaker.base_timeout = Duration::millis(600);
  crash.faults.actions.push_back(
      faults::FaultAction::crash_leader(Duration::seconds(2)));
  const struct {
    const char* name;
    ClusterConfig cfg;
    int secs;
    std::uint64_t spans_digest;
    std::uint64_t report_digest;
  } runs[] = {
      {"marlin", tiny_config(ProtocolKind::kMarlin), 3, 0xef46f55bc2e0180eull,
       0x14a788ae1029d3adull},
      {"hotstuff", tiny_config(ProtocolKind::kHotStuff), 3,
       0x00e6276e1282a751ull, 0xd59226be410f963bull},
      {"crash-leader", crash, 4, 0x1d53e5bbb0eb481dull, 0x58c0dc0cb60b7361ull},
  };
  for (const auto& run : runs) {
    obs::TraceSink sink{1u << 17};
    const auto events = run_traced(run.cfg, run.secs, &sink);
    EXPECT_EQ(fnv1a(obs::spans_to_chrome_json(obs::build_spans(events))),
              run.spans_digest)
        << run.name;
    EXPECT_EQ(fnv1a(obs::critical_path_report(events)), run.report_digest)
        << run.name;
  }
}

}  // namespace
}  // namespace marlin
