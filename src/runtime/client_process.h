// Closed-loop BFT client, shared by both backends: keeps `window` requests
// outstanding, broadcasts each request to every replica, accepts a result
// once f+1 distinct replicas reply with matching results (paper §III),
// records end-to-end latency, and retransmits on timeout (covers leader
// failure / dropped batches).
//
// Every op gets one reply from each of the n replicas, so the reply path is
// kept flat: a request's acks are a short vector with one entry per distinct
// result (one, when replicas agree), each holding a bitmap over replica ids
// and its population count; the pending request owns its payload for
// retransmission.
//
// A backend derives from it and supplies only the wire, the clock and the
// timers (the protected seam): runtime::SimClient on the simulator, a
// TcpTransport binding in realnet::RealCluster on metal.
#pragma once

#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/ids.h"
#include "common/payload.h"
#include "common/rng.h"
#include "common/scheduler.h"
#include "obs/trace.h"
#include "types/messages.h"

namespace marlin::runtime {

/// Per-process client wiring (one instance per client). The cluster-level
/// knobs shared by all clients live in runtime::ClientConfig (cluster.h).
struct ClientProcessConfig {
  ClientId id = 0;
  QuorumParams quorum;
  /// Outstanding requests kept in flight (closed loop).
  std::uint32_t window = 1;
  /// Request payload size in bytes (0 = the paper's no-op mode).
  std::size_t payload_size = 150;
  Duration retransmit_timeout = Duration::seconds(4);
  /// Stop issuing new requests after this many (0 = unlimited).
  std::uint64_t max_requests = 0;
  /// Records kClientSubmit / kReplyAccepted when set (non-owning).
  obs::TraceSink* trace = nullptr;
};

class ClientProcess {
 public:
  virtual ~ClientProcess() = default;
  // Retransmit timers hold `this`.
  ClientProcess(const ClientProcess&) = delete;
  ClientProcess& operator=(const ClientProcess&) = delete;

  /// Issues the first window of requests.
  void start();

  /// One frame from node `from`. A reply counts only as the vote of the
  /// replica that sent it: the transport's sender must be a replica and
  /// must match the reply's own replica field.
  void handle_message(std::uint32_t from, Payload payload);

  /// Stops issuing and retransmitting (shutdown sequencing: a quiesced
  /// client keeps accepting replies while replicas drain).
  void quiesce();

  /// Clients occupy node ids n.. in id order, after the replicas.
  std::uint32_t node_id() const { return config_.quorum.n + config_.id; }

  WindowedCounter& completed() { return completed_; }
  LatencyHistogram& latency() { return latency_; }
  std::uint64_t issued() const { return next_request_ - 1; }
  std::uint64_t in_flight() const { return pending_.size(); }
  std::uint64_t retransmissions() const { return retransmissions_; }

 protected:
  /// `rng` feeds request payloads.
  ClientProcess(ClientProcessConfig config, Rng rng)
      : config_(config), rng_(std::move(rng)) {
    pending_.reserve(config_.window);
  }

  // -- the backend seam: clock, timers and wire ------------------------------
  virtual TimePoint now() const = 0;
  /// Timers, scheduled at now() + delay on the backend's clock.
  virtual marlin::Scheduler& timers() = 0;
  /// Puts one frame on the wire to node `to`.
  virtual void transmit(std::uint32_t to, Payload wire) = 0;

 private:
  /// The replicas that replied with one result to one request.
  struct Ack {
    Bytes result;
    std::vector<std::uint64_t> voters;  // bit r: replica r sent `result`
    std::uint32_t count = 0;            // bits set in `voters`
  };
  struct Pending {
    TimePoint first_sent;
    Bytes payload;  // for retransmission
    std::vector<Ack> acks;
    TimerHandle retransmit;
  };

  void issue_next();
  void arm_retransmit(RequestId id);
  void flush_burst();

  ClientProcessConfig config_;
  RequestId next_request_ = 1;
  std::unordered_map<RequestId, Pending> pending_;
  std::vector<types::Operation> burst_;  // requests awaiting one flush
  WindowedCounter completed_;
  LatencyHistogram latency_;
  std::uint64_t retransmissions_ = 0;
  bool quiesced_ = false;
  Rng rng_;
};

}  // namespace marlin::runtime
