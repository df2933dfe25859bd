// The knowledge plane's two touch points on a BoflController, shared by
// fl::Simulation (one controller per client) and the fleet (one per
// cluster): admission at construction, publish-back at end of run.
// Publishing is a const, store-free prepare step plus an apply step, so
// callers apply in their canonical (client- or cluster-id) order and the
// store bytes stay layout invariant.
#pragma once

#include <cstdint>

#include "core/bofl_controller.hpp"
#include "priors/cluster_key.hpp"
#include "priors/prior_policy.hpp"
#include "priors/snapshot.hpp"

namespace bofl::priors {

class KnowledgeStore;

/// Seed a fresh `controller` from `key`'s prior under `requested`; returns
/// the policy granted.  kCold (store declined, or asked for kCold) leaves
/// the controller bit-identical to a cold start.
PriorPolicy admit_prior(const KnowledgeStore& store, const ClusterKey& key,
                        PriorPolicy requested,
                        core::BoflController& controller);

/// Outcome feedback (kVerified/kAdopted confirm, kDemoted refutes) plus a
/// snapshot distilled at `source_rounds` once the controller exploits.
struct PublishBatch {
  ClusterKey key{};
  bool has_outcome = false;
  bool confirmed = false;
  bool has_snapshot = false;
  PriorSnapshot snapshot{};
};

[[nodiscard]] PublishBatch prepare_publish(
    const core::BoflController& controller, ClusterKey key,
    std::int64_t source_rounds);

/// Apply a prepared batch: the outcome first, then the snapshot.
void apply_publish(KnowledgeStore& store, const PublishBatch& batch);

}  // namespace bofl::priors
