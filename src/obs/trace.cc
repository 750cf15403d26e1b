#include "obs/trace.h"

#include <algorithm>

namespace marlin::obs {

namespace {
constexpr const char* kEventNames[kEventTypeCount] = {
    "proposal_sent",  "proposal_received", "vote_sent",
    "vote_received",  "qc_formed",         "phase_transition",
    "commit",         "view_entered",      "view_change_start",
    "view_change_end", "timeout_fired",    "msg_sent",
    "msg_dropped",    "wal_write",         "sstable_write",
    "checkpoint",     "sig_verify",        "msg_delivered",
    "client_submit",  "reply_accepted",    "batch_dequeued",
    "fault_injected", "replica_restart",   "state_transfer",
};

constexpr const char* kPhaseNames[] = {"preprepare", "prepare", "precommit",
                                       "commit", "decide"};
}  // namespace

const char* event_type_name(EventType t) {
  const auto i = static_cast<std::size_t>(t);
  return i < kEventTypeCount ? kEventNames[i] : "unknown";
}

EventType event_type_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kEventTypeCount; ++i) {
    if (name == kEventNames[i]) return static_cast<EventType>(i);
  }
  return EventType::kCount;
}

const char* trace_phase_name(std::uint8_t phase) {
  if (phase == kNoPhase) return "-";
  return phase < 5 ? kPhaseNames[phase] : "unknown";
}

TraceSink::TraceSink(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void TraceSink::set_enabled(EventType t, bool on) {
  const std::uint64_t bit = 1ull << static_cast<unsigned>(t);
  if (on) {
    disabled_mask_ &= ~bit;
  } else {
    disabled_mask_ |= bit;
  }
}

std::uint64_t TraceSink::record(TraceEvent e) {
  if (!enabled(e.type)) return next_seq_;
  e.seq = next_seq_++;
  if (clock_) e.at = clock_();
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    ring_[head_] = e;
    head_ = (head_ + 1) % capacity_;
  }
  return e.seq;
}

std::vector<TraceEvent> TraceSink::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

void TraceSink::clear() {
  ring_.clear();
  head_ = 0;
  next_seq_ = 0;
}

std::vector<TraceEvent> merge_traces(
    const std::vector<const TraceSink*>& sinks, MergedSeq seq) {
  if (sinks.size() == 1) return sinks.front()->events();
  std::size_t total = 0;
  for (const TraceSink* sink : sinks) total += sink->size();
  std::vector<TraceEvent> all;
  all.reserve(total);
  for (const TraceSink* sink : sinks) {
    const std::vector<TraceEvent> events = sink->events();
    all.insert(all.end(), events.begin(), events.end());
  }
  // stable_sort: full ties (same instant, node and seq, from two sinks)
  // keep the order of `sinks`.
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.at != b.at) return a.at < b.at;
                     if (a.node != b.node) return a.node < b.node;
                     return a.seq < b.seq;
                   });
  if (seq == MergedSeq::kDense) {
    for (std::size_t i = 0; i < all.size(); ++i) all[i].seq = i;
  }
  return all;
}

std::uint64_t evicted_events(const std::vector<const TraceSink*>& sinks) {
  std::uint64_t evicted = 0;
  for (const TraceSink* sink : sinks) evicted += sink->evicted();
  return evicted;
}

}  // namespace marlin::obs
