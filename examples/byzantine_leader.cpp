// Byzantine-pressure demo: a leader whose COMMIT notices are selectively
// suppressed (the network-level equivalent of a leader equivocating about
// QC dissemination, the paper's Fig. 2 "hide the latest QC" behaviour),
// followed by its crash. Marlin's view change — virtual blocks and all —
// must recover without ever violating safety.
//
// The faults are declared up front as a FaultPlan (faults/fault_plan.h)
// and executed by the cluster's FaultController; the same scenario can be
// replayed from JSON via `marlin_run --backend=sim --faults <plan.json>`.
//
//   ./build/examples/byzantine_leader
#include <cstdio>

#include "runtime/cluster.h"

using namespace marlin;
using namespace marlin::runtime;

int main() {
  std::printf("Byzantine-leader pressure demo (Marlin, f=1, n=4)\n\n");

  ClusterConfig cfg;
  cfg.f = 1;
  cfg.consensus.protocol = ProtocolKind::kMarlin;
  cfg.consensus.disable_happy_path = true;  // make the view change do real work
  cfg.clients.count = 4;
  cfg.clients.window = 8;
  cfg.consensus.pacemaker.base_timeout = Duration::millis(600);

  // View 1's leader is replica 1 (leader = view mod n). The plan: at t=2s
  // it turns "half-silent" — its messages reach only replica 0 — and at
  // t=4s the silence heals and whoever leads then crashes for good.
  const ReplicaId leader = 1;
  cfg.faults.name = "qc-hiding-leader-then-crash";
  cfg.faults.actions = {
      faults::FaultAction::silence(Duration::seconds(2), leader, {0}),
      faults::FaultAction::heal(Duration::seconds(4)),
      faults::FaultAction::crash(Duration::seconds(4), leader),
  };
  std::printf("fault plan:\n%s\n", cfg.faults.to_json().c_str());

  sim::Simulator sim(99);
  Cluster cluster(sim, cfg);
  cluster.start();

  sim.run_for(Duration::seconds(2));
  std::printf("t=2.0s  view 1 leader is replica %u; committed height %llu\n",
              cluster.current_leader(),
              static_cast<unsigned long long>(
                  cluster.replica(0).protocol().committed_height()));
  std::printf("t=2.0s  leader %u now reaches ONLY replica 0 "
              "(QC-hiding behaviour)\n", leader);

  // Phase 1: silence active. Replicas 2 and 3 stall; replica 0 may advance
  // further.
  sim.run_for(Duration::seconds(2));
  for (ReplicaId r = 0; r < cluster.n(); ++r) {
    std::printf("        replica %u: height %llu, locked view %llu\n", r,
                static_cast<unsigned long long>(
                    cluster.replica(r).protocol().committed_height()),
                static_cast<unsigned long long>(
                    cluster.replica(r).marlin()->locked_qc().view));
  }

  // Phase 2: the leader died at t=4s. The remaining replicas hold
  // different locks/highQCs — the interesting view-change snapshots.
  std::printf("t=4.0s  leader %u crashed; survivors run the view change\n",
              leader);
  sim.run_for(Duration::seconds(8));

  const ReplicaId new_leader = cluster.current_leader();
  std::printf("t=12s   view %llu, new leader replica %u (%s path)\n",
              static_cast<unsigned long long>(cluster.max_view()), new_leader,
              cluster.replica(new_leader).marlin()->unhappy_view_changes() > 0
                  ? "unhappy"
                  : "happy");
  for (ReplicaId r = 0; r < cluster.n(); ++r) {
    if (cluster.network().is_down(r)) continue;
    std::printf("        replica %u: committed height %llu\n", r,
                static_cast<unsigned long long>(
                    cluster.replica(r).protocol().committed_height()));
  }

  const bool safe = !cluster.any_safety_violation() &&
                    cluster.committed_heights_consistent();
  std::printf("\nsafety held throughout: %s\n", safe ? "yes" : "NO — BUG");
  return safe ? 0 : 1;
}
