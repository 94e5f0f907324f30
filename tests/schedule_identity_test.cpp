// Schedule-identity golden values.
//
// Two small cells pinned by their replay-identity tuple
// (events_executed, rng_digest): one unsharded (the one-domain engine,
// which runs a single Scheduler plain), one on the sharded engine. Either number moves when anything
// changes which events run, in what order, or which PRNG draws they
// make — so a change meant to be a pure host-speed optimisation (byte
// loops, allocation, heap comparator inlining) must leave both exactly
// as they are. A change that alters the schedule on purpose updates the
// literals here and says why in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>

#include "harness/scenario.hpp"
#include "sim/random.hpp"

namespace hrmc::harness {
namespace {

constexpr std::uint64_t kKiB = 1024;

/// Fig 15(c) Test 5 at smoke size: 10 receivers over groups A/B/C at
/// 10 Mbit/s, 256 KiB buffers, a 512 KiB transfer read at 64 Mbit/s.
Scenario fig15_test5_cell() {
  Workload wl;
  wl.file_bytes = 512 * kKiB;
  wl.sink_read_rate_bps = 64e6;
  return test_case_scenario(5, 10, 10e6, 256 * kKiB, wl, 15005);
}

/// 1k modeled leaves: 8 ModeledReceiver slots of 125 leaves over four
/// router subtrees on the sharded engine at two worker threads. The
/// subtrees alternate MAN and WAN paths so shared-path loss sends NAKs
/// upstream and the sender retransmits.
Scenario modeled_1k_cell() {
  constexpr std::size_t kSlots = 8;
  constexpr std::size_t kGroups = 4;
  const std::uint64_t seed = 1000;
  Scenario sc;
  sc.name = "modeled_1k";
  sc.topo.network_bps = 10e6;
  sc.topo.seed = sim::substream_seed(seed, "topo");
  for (std::size_t g = 0; g < kGroups; ++g) {
    const int n = kSlots / kGroups;
    sc.topo.groups.push_back(g % 2 == 0 ? net::group_b(n) : net::group_c(n));
  }
  sc.proto.sndbuf = 256 * kKiB;
  sc.proto.rcvbuf = 256 * kKiB;
  sc.proto.join_batch_threshold = 4;
  sc.proto.feedback_seed = seed;
  sc.workload.file_bytes = 512 * kKiB;
  sc.seed = seed;
  for (std::size_t i = 0; i < kSlots; ++i) {
    ModeledGroup mg;
    mg.receiver = i;
    mg.population = 125;
    mg.leaf_loss = 1e-3;
    sc.modeled.push_back(mg);
  }
  sc.shard.enabled = true;
  sc.shard.threads = 2;
  return sc;
}

TEST(ScheduleIdentity, Fig15Test5LegacyEngine) {
  const RunResult r = run_transfer(fig15_test5_cell());
  ASSERT_TRUE(r.completed);
  ASSERT_TRUE(r.verify_ok);
  EXPECT_GT(r.sender.naks_received, 0u);
  EXPECT_GT(r.sender.retransmissions, 0u);
  EXPECT_EQ(r.events_executed, 27963u);
  EXPECT_EQ(r.rng_digest, 1675327013342475709u);
}

TEST(ScheduleIdentity, Modeled1kShardedTwoThreads) {
  const RunResult r = run_transfer(modeled_1k_cell());
  ASSERT_TRUE(r.completed);
  ASSERT_TRUE(r.verify_ok);
  EXPECT_GT(r.shard_epochs, 0u);
  EXPECT_GT(r.sender.naks_received, 0u);
  EXPECT_GT(r.sender.retransmissions, 0u);
  EXPECT_EQ(r.events_executed, 23761u);
  EXPECT_EQ(r.rng_digest, 5147970007863766180u);
}

}  // namespace
}  // namespace hrmc::harness
