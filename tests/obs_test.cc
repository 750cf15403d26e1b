// Unit tests for the observability subsystem: TraceSink ring semantics,
// event-type naming, metrics registry merging, histogram interpolation,
// and the JSONL / JSON / CSV exporters (including round-tripping).
#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace marlin::obs {
namespace {

// ---------------------------------------------------------------------------
// TraceSink
// ---------------------------------------------------------------------------

TEST(TraceSink, StampsSequenceAndClock) {
  TraceSink sink(16);
  std::int64_t now_ns = 0;
  sink.set_clock([&] { return TimePoint::origin() + Duration::nanos(now_ns); });

  now_ns = 1000;
  EXPECT_EQ(sink.record({.type = EventType::kCommit}), 0u);
  now_ns = 2500;
  EXPECT_EQ(sink.record({.type = EventType::kCommit}), 1u);

  auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].at.as_nanos(), 1000);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[1].at.as_nanos(), 2500);
}

TEST(TraceSink, RingEvictsOldestKeepingOrder) {
  TraceSink sink(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    sink.record({.type = EventType::kCommit, .height = i});
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.total_recorded(), 10u);
  EXPECT_EQ(sink.evicted(), 6u);
  auto events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].height, 6 + i);
    EXPECT_EQ(events[i].seq, 6 + i);
    if (i > 0) {
      EXPECT_LT(events[i - 1].seq, events[i].seq);
    }
  }
}

TEST(TraceSink, DisabledTypesAreSkippedWithoutSeqGaps) {
  TraceSink sink(16);
  sink.set_enabled(EventType::kWalWrite, false);
  sink.record({.type = EventType::kCommit});
  sink.record({.type = EventType::kWalWrite});
  sink.record({.type = EventType::kCommit});
  auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);

  sink.set_enabled(EventType::kWalWrite, true);
  sink.record({.type = EventType::kWalWrite});
  EXPECT_EQ(sink.size(), 3u);
}

TEST(TraceSink, ClearRestartsNumbering) {
  TraceSink sink(8);
  sink.record({.type = EventType::kCommit});
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.record({.type = EventType::kCommit}), 0u);
}

TEST(TraceSink, RingSurvivesManyWraps) {
  TraceSink sink(4);
  for (std::uint64_t i = 0; i < 103; ++i) {
    sink.record({.type = EventType::kCommit, .height = i});
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.total_recorded(), 103u);
  EXPECT_EQ(sink.evicted(), 99u);
  auto events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  // The survivors are the newest 4, oldest first, regardless of how many
  // times the head wrapped around in between.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].height, 99 + i);
    EXPECT_EQ(events[i].seq, 99 + i);
  }
}

TEST(TraceSink, ExactCapacityDoesNotEvict) {
  TraceSink sink(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    sink.record({.type = EventType::kCommit, .height = i});
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.evicted(), 0u);
  EXPECT_EQ(sink.events().front().seq, 0u);
  // The very next record is the first eviction.
  sink.record({.type = EventType::kCommit, .height = 4});
  EXPECT_EQ(sink.evicted(), 1u);
  EXPECT_EQ(sink.events().front().seq, 1u);
}

TEST(TraceSink, CapacityOneKeepsOnlyTheNewest) {
  TraceSink sink(1);
  for (std::uint64_t i = 0; i < 5; ++i) {
    sink.record({.type = EventType::kCommit, .height = i});
  }
  EXPECT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.evicted(), 4u);
  auto events = sink.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].height, 4u);
  EXPECT_EQ(events[0].seq, 4u);
}

TEST(TraceSink, ClearAfterWrapResetsEvictionAccounting) {
  TraceSink sink(2);
  for (std::uint64_t i = 0; i < 7; ++i) {
    sink.record({.type = EventType::kCommit, .height = i});
  }
  EXPECT_EQ(sink.evicted(), 5u);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.total_recorded(), 0u);
  EXPECT_EQ(sink.evicted(), 0u);
  // Numbering and eviction both restart from scratch.
  EXPECT_EQ(sink.record({.type = EventType::kCommit, .height = 100}), 0u);
  sink.record({.type = EventType::kCommit, .height = 101});
  sink.record({.type = EventType::kCommit, .height = 102});
  EXPECT_EQ(sink.evicted(), 1u);
  EXPECT_EQ(sink.events().front().height, 101u);
}

TEST(TraceSink, FilterMaskCoversTypesPastBit31) {
  // The taxonomy has grown past 16 entries; the enable mask must be
  // 64-bit so high-numbered types can be disabled (a 32-bit `1u << t`
  // would overflow for t >= 32 and silently disable the wrong type).
  static_assert(kEventTypeCount <= 64);
  TraceSink sink(16);
  const auto last = static_cast<EventType>(kEventTypeCount - 1);
  sink.set_enabled(last, false);
  EXPECT_FALSE(sink.enabled(last));
  // No other type was affected.
  for (std::size_t t = 0; t + 1 < kEventTypeCount; ++t) {
    EXPECT_TRUE(sink.enabled(static_cast<EventType>(t))) << t;
  }
  sink.record({.type = last});
  EXPECT_EQ(sink.size(), 0u);
  sink.set_enabled(last, true);
  sink.record({.type = last});
  EXPECT_EQ(sink.size(), 1u);
}

// ---------------------------------------------------------------------------
// merge_traces: the one cluster-level trace read
// ---------------------------------------------------------------------------

TEST(MergeTraces, OrdersByTimeThenNodeThenRecordOrderWithDenseSeq) {
  std::int64_t now_ns = 0;
  const auto clock = [&] {
    return TimePoint::origin() + Duration::nanos(now_ns);
  };
  TraceSink control(8), shard_a(8), shard_b(8);
  for (TraceSink* sink : {&control, &shard_a, &shard_b}) sink->set_clock(clock);
  // Each event's height names it; a sink's own seq is its record order.
  now_ns = 10;
  shard_a.record({.node = 2, .type = EventType::kCommit, .height = 1});
  shard_a.record({.node = 2, .type = EventType::kCommit, .height = 2});
  control.record({.type = EventType::kFaultInjected, .height = 6});
  control.record({.type = EventType::kFaultInjected, .height = 7});
  now_ns = 5;
  shard_b.record({.node = 1, .type = EventType::kCommit, .height = 4});
  now_ns = 10;
  shard_b.record({.node = 1, .type = EventType::kCommit, .height = 5});
  now_ns = 20;
  shard_a.record({.node = 0, .type = EventType::kCommit, .height = 3});

  // The control lane is listed first, yet its kNoNode events sort last
  // among equal times.
  const std::vector<TraceEvent> merged =
      merge_traces({&control, &shard_a, &shard_b});
  std::vector<Height> order;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].seq, i);  // dense over the merge
    order.push_back(merged[i].height);
  }
  EXPECT_EQ(order, (std::vector<Height>{4, 5, 1, 2, 6, 7, 3}));
  EXPECT_EQ(merged[4].node, kNoNode);
  EXPECT_EQ(merge_traces({&shard_b, &shard_a, &control}), merged);

  // Same order with each sink's own seq kept.
  const std::vector<TraceEvent> per_sink =
      merge_traces({&control, &shard_a, &shard_b}, MergedSeq::kPerSink);
  ASSERT_EQ(per_sink.size(), merged.size());
  std::vector<std::uint64_t> seqs;
  for (std::size_t i = 0; i < per_sink.size(); ++i) {
    EXPECT_EQ(per_sink[i].height, merged[i].height);
    seqs.push_back(per_sink[i].seq);
  }
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 0, 1, 0, 1, 2}));
}

TEST(MergeTraces, ASingleSinkComesBackAsRecorded) {
  std::int64_t now_ns = 0;
  TraceSink sink(3);
  sink.set_clock([&] { return TimePoint::origin() + Duration::nanos(now_ns); });
  // Out of (at, node) order, and past capacity so seq no longer starts at 0.
  for (const auto& [at, node] : std::vector<std::pair<std::int64_t,
                                                      std::uint32_t>>{
           {30, 1}, {10, 0}, {20, 2}, {20, 0}}) {
    now_ns = at;
    sink.record({.node = node, .type = EventType::kCommit});
  }
  const std::vector<TraceEvent> merged = merge_traces({&sink});
  EXPECT_EQ(merged, sink.events());
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged.front().seq, 1u);
  EXPECT_EQ(merged[1].node, 2u);
}

TEST(MergeTraces, EvictionsSumOverEverySink) {
  TraceSink a(2), b(4);
  for (int i = 0; i < 5; ++i) a.record({.type = EventType::kCommit});
  for (int i = 0; i < 6; ++i) b.record({.type = EventType::kCommit});
  EXPECT_EQ(evicted_events({&a, &b}), 3u + 2u);
  EXPECT_EQ(merge_traces({&a, &b}).size(), 2u + 4u);
  EXPECT_EQ(evicted_events({}), 0u);
  EXPECT_TRUE(merge_traces({}).empty());
}

TEST(TraceNames, RoundTripAllTypes) {
  for (std::size_t t = 0; t < kEventTypeCount; ++t) {
    const auto type = static_cast<EventType>(t);
    EXPECT_EQ(event_type_from_name(event_type_name(type)), type);
  }
  EXPECT_EQ(event_type_from_name("no_such_event"), EventType::kCount);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Metrics, CountersAndGaugesByLabel) {
  MetricsRegistry reg;
  reg.counter("commits") += 3;
  reg.counter("commits", "replica=1") += 2;
  reg.gauge("height") = 17;
  EXPECT_EQ(reg.counter_value("commits"), 3u);
  EXPECT_EQ(reg.counter_value("commits", "replica=1"), 2u);
  EXPECT_EQ(reg.counter_value("commits", "replica=2"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("height"), 17);
}

TEST(Metrics, MergeAddsCountersAndMaxesGauges) {
  MetricsRegistry a, b;
  a.counter("ops") = 5;
  b.counter("ops") = 7;
  b.counter("only_b") = 1;
  a.gauge("view") = 3;
  b.gauge("view") = 9;
  a.latency("lat").record(Duration::millis(10));
  b.latency("lat").record(Duration::millis(30));

  a.merge_from(b);
  EXPECT_EQ(a.counter_value("ops"), 12u);
  EXPECT_EQ(a.counter_value("only_b"), 1u);
  EXPECT_DOUBLE_EQ(a.gauge_value("view"), 9);
  EXPECT_EQ(a.latencies().at({"lat", ""}).count(), 2u);
}

TEST(ValueHistogramTest, InterpolatedPercentiles) {
  ValueHistogram h;
  for (std::uint64_t v : {10u, 20u, 30u, 40u}) h.record(v);
  EXPECT_DOUBLE_EQ(h.percentile(0), 10);
  EXPECT_DOUBLE_EQ(h.percentile(100), 40);
  // rank = 0.5 * 3 = 1.5 -> halfway between 20 and 30.
  EXPECT_DOUBLE_EQ(h.percentile(50), 25);
  EXPECT_DOUBLE_EQ(h.percentile(25), 17.5);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 40u);
  EXPECT_DOUBLE_EQ(h.mean(), 25);
}

TEST(ValueHistogramTest, EmptyIsZeroEverywhere) {
  ValueHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 0);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(ValueHistogramTest, SingleSampleIsEveryPercentile) {
  ValueHistogram h;
  h.record(42);
  // With n == 1 the interpolation rank is always 0, so every quantile,
  // including both bounds, is the lone sample.
  EXPECT_DOUBLE_EQ(h.percentile(0), 42);
  EXPECT_DOUBLE_EQ(h.percentile(50), 42);
  EXPECT_DOUBLE_EQ(h.percentile(99), 42);
  EXPECT_DOUBLE_EQ(h.percentile(100), 42);
  EXPECT_EQ(h.min(), 42u);
  EXPECT_EQ(h.max(), 42u);
  EXPECT_DOUBLE_EQ(h.mean(), 42);
  EXPECT_EQ(h.sum(), 42u);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(Export, EventJsonRoundTrip) {
  TraceEvent e;
  e.seq = 42;
  e.at = TimePoint::origin() + Duration::micros(1234);
  e.node = 3;
  e.type = EventType::kQcFormed;
  e.phase = 1;  // prepare
  e.kind = 4;
  e.view = 7;
  e.height = 19;
  e.block = 0xdeadbeefcafef00dull;
  e.a = 11;
  e.b = 22;
  e.c = 33;

  const std::string line = event_to_json(e);
  TraceEvent back;
  ASSERT_TRUE(event_from_json(line, &back)) << line;
  EXPECT_EQ(back, e);
}

TEST(Export, EventJsonRoundTripsSentinels) {
  TraceEvent e;  // node = kNoNode, phase = kNoPhase, everything else zero
  e.type = EventType::kMsgDropped;
  const std::string line = event_to_json(e);
  TraceEvent back;
  ASSERT_TRUE(event_from_json(line, &back)) << line;
  EXPECT_EQ(back.node, kNoNode);
  EXPECT_EQ(back.phase, kNoPhase);
  EXPECT_EQ(back, e);
}

TEST(Export, RejectsMalformedLines) {
  TraceEvent out;
  EXPECT_FALSE(event_from_json("", &out));
  EXPECT_FALSE(event_from_json("{\"type\":\"bogus_event\"}", &out));
}

TEST(Export, JsonlOneLinePerEvent) {
  TraceSink sink(8);
  sink.record({.type = EventType::kCommit, .height = 1});
  sink.record({.type = EventType::kCommit, .height = 2});
  const std::string jsonl = trace_to_jsonl(sink);
  std::istringstream in(jsonl);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    TraceEvent e;
    EXPECT_TRUE(event_from_json(line, &e));
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
}

TEST(Export, MetricsJsonAndCsvAreDeterministic) {
  MetricsRegistry reg;
  reg.counter("z.last") = 1;
  reg.counter("a.first") = 2;
  reg.gauge("g", "replica=0") = 0.5;
  reg.latency("lat").record(Duration::millis(3));
  reg.sizes("sz").record(100);

  const std::string json = metrics_to_json(reg);
  const std::string csv = metrics_to_csv(reg);
  // Ordered maps: a.first serializes before z.last.
  EXPECT_LT(json.find("a.first"), json.find("z.last"));
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(csv.find("metric,label,field,value"), std::string::npos);
  EXPECT_NE(csv.find("g,replica=0,value,0.500"), std::string::npos);
  // Re-exporting the same registry is byte-identical.
  EXPECT_EQ(json, metrics_to_json(reg));
  EXPECT_EQ(csv, metrics_to_csv(reg));
}

TEST(Export, ViewTimelineGroupsByView) {
  TraceSink sink(32);
  std::int64_t t = 0;
  sink.set_clock([&] { return TimePoint::origin() + Duration::millis(t); });
  t = 5;
  sink.record({.node = 1, .type = EventType::kViewEntered, .view = 1});
  t = 10;
  sink.record(
      {.node = 1, .type = EventType::kProposalSent, .view = 1, .height = 1});
  t = 90;
  sink.record({.node = 1,
               .type = EventType::kCommit,
               .view = 1,
               .height = 1,
               .a = 4,
               .b = 4});
  std::ostringstream out;
  print_view_timeline(sink.events(), out);
  const std::string s = out.str();
  EXPECT_NE(s.find("view"), std::string::npos);
  EXPECT_NE(s.find("1"), std::string::npos);
}

}  // namespace
}  // namespace marlin::obs
