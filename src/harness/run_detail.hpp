// Identity pieces of run_transfer that code outside scenario.cpp must
// reproduce exactly: the group endpoint every receiver joins and the
// fold order of RunResult::rng_digest. A replica of a run_transfer cell
// (the traced benchmark build) uses these to match its
// (events_executed, rng_digest) tuple.
#pragma once

#include <memory>
#include <vector>

#include "harness/scenario.hpp"
#include "hrmc/modeled.hpp"
#include "hrmc/receiver.hpp"

namespace hrmc::harness::detail {

inline constexpr net::Addr kGroupAddr = net::make_addr(224, 5, 5, 5);
inline constexpr net::Port kGroupPort = 7500;

/// RunResult::rng_digest: end-state of every RNG stream in the run,
/// folded in a fixed component order (network elements in topology
/// order, then per-slot protocol endpoints, then the apps). The order
/// is part of the replay-identity contract — two runs agree on the
/// digest iff every component's stream advanced identically.
inline std::uint64_t fold_run_digest(
    net::Topology& topo,
    const std::vector<std::unique_ptr<proto::HrmcReceiver>>& rcv_socks,
    const std::vector<std::unique_ptr<proto::ModeledReceiver>>& modeled_socks,
    const std::vector<std::unique_ptr<app::SinkApp>>& sinks,
    const app::SourceApp& source) {
  std::uint64_t acc = 0x48524d43u;  // 'HRMC'
  acc = sim::digest_mix(acc, topo.backbone().rng_digest());
  for (std::size_t g = 0; g < topo.group_count(); ++g) {
    acc = sim::digest_mix(acc, topo.group_router(g).rng_digest());
  }
  acc = sim::digest_mix(acc, topo.sender_nic().rng_digest());
  for (std::size_t i = 0; i < topo.receiver_count(); ++i) {
    acc = sim::digest_mix(acc, topo.receiver_nic(i).rng_digest());
  }
  for (std::size_t i = 0; i < rcv_socks.size(); ++i) {
    acc = sim::digest_mix(acc, rcv_socks[i]
                                   ? rcv_socks[i]->rng_digest()
                                   : modeled_socks[i]->rng_digest());
    if (sinks[i]) acc = sim::digest_mix(acc, sinks[i]->rng_digest());
  }
  return sim::digest_mix(acc, source.rng_digest());
}

}  // namespace hrmc::harness::detail
