// Per-replica mempool. Clients broadcast requests to every replica; the
// current leader drains batches from here, and commits prune entries on
// all replicas. Deduplication is by (client, request id); a per-client
// executed watermark drops stale re-submissions.
#pragma once

#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/sim_time.h"
#include "types/block.h"

namespace marlin::consensus {

class TxPool {
 public:
  /// Adds an operation; ignored when already pooled or already executed.
  /// `at` is the enqueue time, kept only for pool-wait attribution.
  void add(types::Operation op, TimePoint at = TimePoint::origin()) {
    const OpKey key = op_key(op);
    if (pooled_.count(key) > 0) return;
    auto it = executed_.find(op.client);
    if (it != executed_.end() && op.request <= it->second) return;
    pooled_.insert(key);
    queue_.push_back({std::move(op), at});
  }

  /// Pops up to `max_ops` operations for a new proposal, skipping any that
  /// committed since they were pooled.
  std::vector<types::Operation> next_batch(std::size_t max_ops) {
    std::vector<types::Operation> batch;
    batch.reserve(std::min(max_ops, queue_.size()));
    bool first = true;
    while (batch.size() < max_ops && !queue_.empty()) {
      Entry entry = std::move(queue_.front());
      queue_.pop_front();
      pooled_.erase(op_key(entry.op));
      auto it = executed_.find(entry.op.client);
      if (it != executed_.end() && entry.op.request <= it->second) continue;
      if (first) {
        // FIFO order: the first surviving op has waited the longest.
        last_batch_oldest_ = entry.at;
        first = false;
      }
      batch.push_back(std::move(entry.op));
    }
    return batch;
  }

  /// Enqueue time of the oldest op in the last non-empty next_batch()
  /// result (origin before any batch was drained).
  TimePoint last_batch_oldest_enqueue() const { return last_batch_oldest_; }

  /// Marks a committed operation: advances the executed watermark and
  /// drops the pooled copy lazily (skipped at pop time).
  void mark_committed(const types::Operation& op) {
    auto [it, inserted] = executed_.try_emplace(op.client, op.request);
    if (!inserted && op.request > it->second) it->second = op.request;
  }

  bool executed(ClientId client, RequestId request) const {
    auto it = executed_.find(client);
    return it != executed_.end() && request <= it->second;
  }

  /// Pending (not-yet-committed) work. Commits arrive roughly in pool
  /// order, so purging stale entries from the front keeps these accurate
  /// at O(1) amortized.
  std::size_t pending() {
    purge_front();
    return queue_.size();
  }
  bool empty() {
    purge_front();
    return queue_.empty();
  }

 private:
  struct Entry {
    types::Operation op;
    TimePoint at;  // enqueue time (observability only)
  };

  void purge_front() {
    while (!queue_.empty()) {
      const types::Operation& op = queue_.front().op;
      if (!executed(op.client, op.request)) break;
      pooled_.erase(op_key(op));
      queue_.pop_front();
    }
  }

  // The full (client, request) pair: request ids arrive unvalidated in
  // client frames, so no packing of the two into 64 bits is collision-free.
  using OpKey = std::pair<ClientId, RequestId>;
  struct OpKeyHash {
    std::size_t operator()(const OpKey& k) const {
      return std::hash<std::uint64_t>{}(
          static_cast<std::uint64_t>(k.first) << 40 ^ k.second);
    }
  };
  static OpKey op_key(const types::Operation& op) {
    return {op.client, op.request};
  }

  std::deque<Entry> queue_;
  std::unordered_set<OpKey, OpKeyHash> pooled_;
  std::unordered_map<ClientId, RequestId> executed_;
  TimePoint last_batch_oldest_;
};

}  // namespace marlin::consensus
