// Differential battery for sharded execution: the same scenario run on
// the ShardEngine at 1, 2 and 4 worker threads must be bit-identical —
// same final stats, same merged trace records, same PRNG end-state,
// same event count. The 1-thread execution is the serial reference;
// any thread-count-dependent divergence is a determinism bug in the
// engine's barrier or mailbox protocol.
//
// Coverage: 23 generator-built chaos scenarios (crashes, flaps,
// partitions, burst loss, disturbances, trunk flaps, wireless fades,
// churn, hierarchy — whatever the seeds draw) plus two hand-built
// scenarios pinning a repairer kill mid-stream and a membership-churn
// plan. The same 25 cells, plus a Sampler cell and a memory-budget
// cell, also pin the one-domain engine to the unsharded schedule.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "harness/chaos.hpp"
#include "harness/scenario.hpp"
#include "harness/thread_budget.hpp"

namespace hrmc::harness {
namespace {

constexpr std::uint64_t kBatterySeedBase = 20260808000ULL;
constexpr int kBatterySpecs = 23;

void expect_identical(const RunResult& want, const RunResult& have,
                      unsigned threads) {
  SCOPED_TRACE(testing::Message() << "threads=" << threads);

  // Replay identity: these four pin the whole schedule.
  EXPECT_EQ(want.events_executed, have.events_executed);
  EXPECT_EQ(want.rng_digest, have.rng_digest);
  EXPECT_EQ(want.sched_compactions, have.sched_compactions);
  EXPECT_EQ(want.shard_epochs, have.shard_epochs);

  // Engine accounting.
  EXPECT_EQ(want.shard_domains, have.shard_domains);
  EXPECT_EQ(want.shard_handoffs, have.shard_handoffs);
  EXPECT_EQ(want.shard_handoff_bytes, have.shard_handoff_bytes);
  EXPECT_EQ(want.shard_control_posts, have.shard_control_posts);

  // Outcome.
  EXPECT_EQ(want.completed, have.completed);
  EXPECT_EQ(want.sender_finished, have.sender_finished);
  EXPECT_EQ(want.elapsed, have.elapsed);
  EXPECT_EQ(want.verify_ok, have.verify_ok);
  EXPECT_EQ(want.any_stream_error, have.any_stream_error);
  EXPECT_EQ(want.survivor_count, have.survivor_count);
  EXPECT_EQ(want.survivors_completed, have.survivors_completed);
  EXPECT_EQ(want.evicted_count, have.evicted_count);
  EXPECT_EQ(want.stall_time, have.stall_time);
  EXPECT_EQ(want.modeled_leaves, have.modeled_leaves);

  // Sender counters.
  EXPECT_EQ(want.sender.data_packets_sent, have.sender.data_packets_sent);
  EXPECT_EQ(want.sender.data_bytes_sent, have.sender.data_bytes_sent);
  EXPECT_EQ(want.sender.retransmissions, have.sender.retransmissions);
  EXPECT_EQ(want.sender.retrans_bytes, have.sender.retrans_bytes);
  EXPECT_EQ(want.sender.keepalives_sent, have.sender.keepalives_sent);
  EXPECT_EQ(want.sender.probes_sent, have.sender.probes_sent);
  EXPECT_EQ(want.sender.naks_received, have.sender.naks_received);
  EXPECT_EQ(want.sender.rate_requests_received,
            have.sender.rate_requests_received);
  EXPECT_EQ(want.sender.updates_received, have.sender.updates_received);
  EXPECT_EQ(want.sender.agg_updates_received,
            have.sender.agg_updates_received);
  EXPECT_EQ(want.sender.joins_received, have.sender.joins_received);
  EXPECT_EQ(want.sender.leaves_received, have.sender.leaves_received);
  EXPECT_EQ(want.sender.members_evicted, have.sender.members_evicted);
  EXPECT_EQ(want.sender.window_stall_time, have.sender.window_stall_time);
  EXPECT_EQ(want.sender.fec_packets_sent, have.sender.fec_packets_sent);
  EXPECT_EQ(want.sender.fec_parity_bytes, have.sender.fec_parity_bytes);
  EXPECT_EQ(want.sender.fec_parity_rate, have.sender.fec_parity_rate);
  EXPECT_EQ(want.sender.fec_rate_increases, have.sender.fec_rate_increases);
  EXPECT_EQ(want.sender.fec_rate_decreases, have.sender.fec_rate_decreases);

  // Per-receiver counters, every slot.
  ASSERT_EQ(want.per_receiver.size(), have.per_receiver.size());
  for (std::size_t i = 0; i < want.per_receiver.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "receiver=" << i);
    const auto& w = want.per_receiver[i];
    const auto& h = have.per_receiver[i];
    EXPECT_EQ(w.data_packets_received, h.data_packets_received);
    EXPECT_EQ(w.data_bytes_received, h.data_bytes_received);
    EXPECT_EQ(w.duplicate_packets, h.duplicate_packets);
    EXPECT_EQ(w.out_of_order_packets, h.out_of_order_packets);
    EXPECT_EQ(w.naks_sent, h.naks_sent);
    EXPECT_EQ(w.naks_suppressed, h.naks_suppressed);
    EXPECT_EQ(w.naks_peer_suppressed, h.naks_peer_suppressed);
    EXPECT_EQ(w.naks_forwarded, h.naks_forwarded);
    EXPECT_EQ(w.updates_sent, h.updates_sent);
    EXPECT_EQ(w.agg_updates_sent, h.agg_updates_sent);
    EXPECT_EQ(w.repairs_served, h.repairs_served);
    EXPECT_EQ(w.repair_failovers, h.repair_failovers);
    EXPECT_EQ(w.bytes_delivered, h.bytes_delivered);
    EXPECT_EQ(w.stall_rejoins, h.stall_rejoins);
  }

  // Memory ledger (one-domain runs only; zero otherwise).
  EXPECT_EQ(want.mem_peak_bytes, have.mem_peak_bytes);
  EXPECT_EQ(want.mem_alloc_fails, have.mem_alloc_fails);
  EXPECT_EQ(want.mem_cache_evictions, have.mem_cache_evictions);

  // Merged trace streams, byte for byte (TraceRecord is packed 32-byte
  // POD, so memcmp sees every field).
  EXPECT_EQ(want.trace_dropped, have.trace_dropped);
  ASSERT_EQ(want.trace_records.size(), have.trace_records.size());
  if (!want.trace_records.empty()) {
    EXPECT_EQ(std::memcmp(want.trace_records.data(),
                          have.trace_records.data(),
                          want.trace_records.size() *
                              sizeof(trace::TraceRecord)),
              0);
  }

  // Sampler series (one-domain runs only), byte for byte: SamplePoint
  // is a time stamp followed by doubles, with no padding.
  ASSERT_EQ(want.samples.size(), have.samples.size());
  if (!want.samples.empty()) {
    EXPECT_EQ(std::memcmp(want.samples.data(), have.samples.data(),
                          want.samples.size() * sizeof(trace::SamplePoint)),
              0);
  }
}

/// Runs `sc` sharded at 1/2/4 threads and checks bit-identity (and
/// that the engine actually sharded: >1 domain when the topology has
/// any group to split off).
RunResult run_battery_cell(Scenario sc) {
  sc.shard.enabled = true;
  sc.shard.threads = 1;
  const RunResult serial = run_transfer(sc);
  EXPECT_EQ(serial.shard_domains, sc.topo.groups.size() + 1);
  for (unsigned threads : {2u, 4u}) {
    sc.shard.threads = threads;
    expect_identical(serial, run_transfer(sc), threads);
  }
  return serial;
}

TEST(ShardDifferential, ChaosBatteryIsThreadCountInvariant) {
  for (int k = 0; k < kBatterySpecs; ++k) {
    const ChaosSpec spec = generate_spec(kBatterySeedBase + k);
    SCOPED_TRACE(testing::Message() << "spec seed " << spec.seed);
    Scenario sc = to_scenario(spec);
    const RunResult serial = run_battery_cell(sc);
    // The reliability oracle must hold under sharded execution too —
    // identical replay is worthless if the run it replays is broken.
    const ChaosVerdict v = judge_result(spec, serial);
    EXPECT_TRUE(v.ok) << v.failure;
  }
}

/// Hierarchy on; the group-0 repairer (its first receiver) crashes
/// mid-transfer and restarts later, exercising child failover to the
/// sender and the repairer's resync — all of it across the trunk
/// boundary between domain 0 and the group domains.
Scenario repairer_kill_scenario() {
  Workload wl;
  wl.file_bytes = 384 * 1024;
  Scenario sc = test_case_scenario(4, 12, 10e6, 256u << 10, wl, 20260808);
  sc.name = "shard-repairer-kill";
  sc.hierarchy.enabled = true;
  sc.proto.eviction_policy = proto::EvictionPolicy::kStall;
  sc.faults.crash(0, sim::seconds(2)).restart(0, sim::seconds(6));
  sc.trace.enabled = true;
  sc.time_limit = sim::seconds(600);
  return sc;
}

/// A clean leave and a late join while the stream runs: the leave
/// prunes the backbone graft through a barrier control post, the late
/// join re-grafts — the zero-latency cross-domain edge the mailbox
/// protocol quantizes to epoch boundaries.
Scenario churn_scenario() {
  Workload wl;
  wl.file_bytes = 256 * 1024;
  Scenario sc = test_case_scenario(5, 10, 10e6, 256u << 10, wl, 20260809);
  sc.name = "shard-churn";
  sc.churn.push_back({sim::seconds(1), 3, false});  // clean leave
  sc.churn.push_back({sim::seconds(2), 7, true});   // late join
  sc.trace.enabled = true;
  sc.time_limit = sim::seconds(600);
  return sc;
}

TEST(ShardDifferential, RepairerKillMidStream) {
  const RunResult serial = run_battery_cell(repairer_kill_scenario());
  EXPECT_TRUE(serial.sender_finished);
  EXPECT_GT(serial.shard_handoffs, 0u);
}

TEST(ShardDifferential, MembershipChurnMidStream) {
  const RunResult serial = run_battery_cell(churn_scenario());
  EXPECT_TRUE(serial.sender_finished);
  EXPECT_GT(serial.shard_control_posts, 0u);
}

TEST(ShardDifferential, AdaptiveFecUnderBurstLoss) {
  // Adaptive RS-FEC on, hierarchy on, Gilbert–Elliott burst loss on the
  // group-0 router: parity encode at the sender (domain 0), RS decode +
  // kFecRepair/kFecDecodeFail tracing at the receivers (group domains),
  // and the per-epoch rate adaptation must all be bit-identical at any
  // worker count — the codec and the adaptation law draw no RNG and
  // read no wall clock.
  Workload wl;
  wl.file_bytes = 384 * 1024;
  Scenario sc = test_case_scenario(4, 12, 10e6, 256u << 10, wl, 20260810);
  sc.name = "shard-adaptive-fec";
  sc.hierarchy.enabled = true;
  sc.proto.fec_group = 8;
  sc.proto.fec_parity_min = 1;
  sc.proto.fec_parity_max = 4;
  sc.proto.fec_adapt_interval = sim::milliseconds(100);
  net::GilbertElliottConfig ge;
  ge.p_good_bad = 0.01;
  ge.p_bad_good = 0.2;
  ge.loss_good = 0.005;
  ge.loss_bad = 1.0;
  sc.faults.burst_loss(0, 0, ge);
  sc.trace.enabled = true;
  sc.time_limit = sim::seconds(600);
  const RunResult serial = run_battery_cell(sc);
  EXPECT_TRUE(serial.sender_finished);
  EXPECT_GT(serial.sender.fec_packets_sent, 0u);
}

TEST(ShardDifferential, LegacyAndShardedAgreeOnOutcome) {
  // The multi-domain schedule differs from the unsharded (one-domain)
  // one where same-timestamp events in different domains interleave,
  // where IGMP grafts wait for a barrier and where done() is sampled —
  // the protocol outcome must agree even where bit-identity isn't
  // defined.
  Workload wl;
  wl.file_bytes = 128 * 1024;
  Scenario sc = test_case_scenario(4, 8, 10e6, 256u << 10, wl, 31337);
  const RunResult unsharded = run_transfer(sc);
  sc.shard.enabled = true;
  sc.shard.threads = 2;
  const RunResult sharded = run_transfer(sc);
  EXPECT_EQ(unsharded.completed, sharded.completed);
  EXPECT_EQ(unsharded.sender_finished, sharded.sender_finished);
  EXPECT_EQ(unsharded.verify_ok, sharded.verify_ok);
  EXPECT_EQ(unsharded.receivers_total.bytes_delivered,
            sharded.receivers_total.bytes_delivered);
  EXPECT_EQ(unsharded.shard_domains, 0u);
}

TEST(ShardDifferential, OneDomainIsTheUnshardedSchedule) {
  // The engine at one domain runs its Scheduler plain, so a sharded
  // scenario capped at one domain must replay the unsharded run exactly
  // — every event, every draw, every trace record and sample — however
  // many threads it is offered.
  std::vector<Scenario> cells;
  for (int k = 0; k < kBatterySpecs; ++k) {
    cells.push_back(to_scenario(generate_spec(kBatterySeedBase + k)));
  }
  cells.push_back(repairer_kill_scenario());
  cells.push_back(churn_scenario());
  {
    Workload wl;
    wl.file_bytes = 256 * 1024;
    Scenario sc = lan_scenario(3, 10e6, 256u << 10, wl, 4242);
    sc.name = "one-domain-sampler";
    sc.trace.enabled = true;
    sc.trace.sample_period = sim::milliseconds(20);
    cells.push_back(sc);
  }
  cells.push_back(to_scenario(generate_mem_spec(kBatterySeedBase)));

  for (Scenario sc : cells) {
    SCOPED_TRACE(testing::Message() << "cell " << sc.name);
    sc.trace.enabled = true;
    const RunResult unsharded = run_transfer(sc);
    sc.shard.enabled = true;
    sc.shard.max_domains = 1;
    sc.shard.threads = 4;
    RunResult one = run_transfer(sc);
    EXPECT_EQ(one.shard_domains, 1u);
    EXPECT_EQ(one.shard_epochs, 0u);
    EXPECT_EQ(unsharded.shard_domains, 0u);
    one.shard_domains = 0;  // the only field that names the option
    expect_identical(unsharded, one, 4);
    EXPECT_EQ(unsharded.skb_peak_bytes, one.skb_peak_bytes);
    EXPECT_EQ(unsharded.skb_live_bytes_end, one.skb_live_bytes_end);
    if (sc.trace.sample_period > 0) {
      EXPECT_FALSE(one.samples.empty());
    }
    if (sc.mem_budget > 0) {
      EXPECT_GT(one.mem_peak_bytes, 0u);
    }
  }
}

TEST(ShardDifferential, LateJoinerIsNeverElectedRepairer) {
  // Hierarchy on and the first receiver of group 0 joins late. Electing
  // it would wire its group-mates to a socket that does not exist yet,
  // and until it opens the sender gates releases on nobody in that
  // subtree. The election must skip it: the next group-mate repairs,
  // and the late joiner is an ordinary child.
  Workload wl;
  wl.file_bytes = 256 * 1024;
  Scenario sc = test_case_scenario(4, 8, 10e6, 256u << 10, wl, 20260811);
  sc.name = "shard-late-joiner-election";
  sc.hierarchy.enabled = true;
  sc.churn.push_back({sim::seconds(1), 0, true});
  sc.trace.enabled = true;
  sc.time_limit = sim::seconds(600);
  ASSERT_EQ(sc.topo.groups[0].receivers, 6);
  const RunResult serial = run_battery_cell(sc);
  EXPECT_TRUE(serial.completed);
  EXPECT_TRUE(serial.sender_finished);
  ASSERT_EQ(serial.per_receiver.size(), 8u);
  EXPECT_EQ(serial.per_receiver[0].agg_updates_sent, 0u);
  EXPECT_EQ(serial.per_receiver[0].repairs_served, 0u);
  EXPECT_GT(serial.per_receiver[1].agg_updates_sent, 0u);
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_EQ(serial.per_receiver[i].repair_failovers, 0u) << "receiver " << i;
  }
}

TEST(ShardDifferential, MemIsRejectedAcrossDomains) {
  // One MemAccountant serves every host and its squeeze windows are
  // global, so a multi-domain run cannot honour it; it must refuse
  // rather than silently run without a budget.
  Workload wl;
  wl.file_bytes = 64 * 1024;
  const Scenario base = lan_scenario(2, 10e6, 256u << 10, wl, 1);
  Scenario budget = base;
  budget.mem_budget = 96 * 1024;
  Scenario squeeze = base;
  squeeze.faults.mem_pressure(0, sim::milliseconds(10), 0.5);
  Scenario alloc_fail = base;
  alloc_fail.faults.alloc_fail(0, sim::milliseconds(10), 0.1);
  for (Scenario sc : {budget, squeeze, alloc_fail}) {
    const RunResult unsharded = run_transfer(sc);
    EXPECT_TRUE(unsharded.completed);
    sc.shard.enabled = true;
    sc.shard.max_domains = 1;
    EXPECT_TRUE(run_transfer(sc).completed);
    sc.shard.max_domains = 0;
    EXPECT_THROW(run_transfer(sc), std::invalid_argument);
  }
}

TEST(ShardDifferential, SamplerIsRejectedUnderSharding) {
  Workload wl;
  wl.file_bytes = 64 * 1024;
  Scenario sc = lan_scenario(2, 10e6, 256u << 10, wl, 1);
  sc.trace.enabled = true;
  sc.trace.sample_period = sim::milliseconds(10);
  sc.shard.enabled = true;
  EXPECT_THROW(run_transfer(sc), std::invalid_argument);
}

TEST(ShardDifferential, MaxDomainsCollapsesAndWrapsDeterministically) {
  // max_domains = 2 folds every group into one non-sender domain;
  // max_domains = 1 folds everything into domain 0 (the unsharded
  // schedule). Both stay thread-count invariant.
  Workload wl;
  wl.file_bytes = 128 * 1024;
  for (std::size_t cap : {1u, 2u}) {
    Scenario sc = test_case_scenario(4, 8, 10e6, 256u << 10, wl, 90210);
    sc.trace.enabled = true;
    sc.shard.enabled = true;
    sc.shard.max_domains = cap;
    sc.shard.threads = 1;
    const RunResult serial = run_transfer(sc);
    EXPECT_EQ(serial.shard_domains, cap);
    sc.shard.threads = 4;
    expect_identical(serial, run_transfer(sc), 4);
  }
}

TEST(ThreadBudget, ExplicitLeaseIsGrantedExactly) {
  ThreadLease a(4);
  EXPECT_EQ(a.count(), 4u);
  ThreadLease b(7);
  EXPECT_EQ(b.count(), 7u);
}

TEST(ThreadBudget, LeftoverShareFloorsAtOne) {
  // Claim the whole budget explicitly; a flexible lease must still be
  // granted one thread so progress is always possible.
  ThreadLease hog(thread_budget());
  ThreadLease flexible(0);
  EXPECT_EQ(flexible.count(), 1u);
}

TEST(ThreadBudget, LeftoverShareSplitsTheBudget) {
  const unsigned budget = thread_budget();
  ThreadLease all(0);
  EXPECT_EQ(all.count(), budget);
  ThreadLease rest(0);
  EXPECT_EQ(rest.count(), 1u);  // nothing left over while `all` lives
}

}  // namespace
}  // namespace hrmc::harness
