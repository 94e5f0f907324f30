#include "sim/shard.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace hrmc::sim {
namespace {

// Per-domain execution logs: each domain appends only its own entries
// while the engine runs (the same single-writer discipline real
// components follow), so logging itself cannot race or perturb order.
using Log = std::vector<std::pair<SimTime, int>>;

struct PingWorld {
  explicit PingWorld(std::size_t domains, SimTime lookahead)
      : engine(domains, lookahead), logs(domains) {}

  /// Executes in domain `d`: log, do some local-only chatter, and if
  /// hops remain bounce a token to the next domain one lookahead out
  /// (the earliest legal cross-domain arrival).
  void hop(std::size_t d, int token, int hops_left) {
    Scheduler& sched = engine.domain(d);
    logs[d].emplace_back(sched.now(), token * 100 + hops_left);
    sched.schedule_after(engine.lookahead() / 4, [this, d, token] {
      logs[d].emplace_back(engine.domain(d).now(), token * 100 + 99);
    });
    if (hops_left == 0) return;
    const std::size_t nd = (d + 1) % engine.domain_count();
    engine.post(d, nd, sched.now() + engine.lookahead(), 64,
                [this, nd, token, hops_left] {
                  hop(nd, token, hops_left - 1);
                });
  }

  ShardEngine engine;
  std::vector<Log> logs;
};

struct PingOutcome {
  std::vector<Log> logs;
  std::uint64_t events = 0;
  ShardEngine::Stats stats;
};

PingOutcome run_ping(std::size_t domains, unsigned threads, int tokens,
                     int hops) {
  PingWorld w(domains, microseconds(50));
  for (int t = 0; t < tokens; ++t) {
    const std::size_t d = static_cast<std::size_t>(t) % domains;
    w.engine.domain(d).schedule_at(microseconds(t + 1), [&w, d, t, hops] {
      w.hop(d, t, hops);
    });
  }
  PingOutcome out;
  out.events = w.engine.run({}, kTimeInfinity, threads);
  out.logs = std::move(w.logs);
  out.stats = w.engine.stats();
  return out;
}

TEST(ShardEngine, RejectsEmptyOrZeroLookahead) {
  EXPECT_THROW(ShardEngine(0, microseconds(1)), std::invalid_argument);
  EXPECT_THROW(ShardEngine(2, 0), std::invalid_argument);
  EXPECT_THROW(ShardEngine(2, -5), std::invalid_argument);
}

TEST(ShardEngine, BitIdenticalAcrossThreadCounts) {
  // The tentpole invariant: per-domain event order, event counts, and
  // epoch structure are a pure function of the scenario — the worker
  // count must be unobservable.
  const PingOutcome serial = run_ping(4, 1, 8, 25);
  for (unsigned threads : {2u, 4u, 8u}) {
    const PingOutcome parallel = run_ping(4, threads, 8, 25);
    EXPECT_EQ(parallel.logs, serial.logs) << threads << " threads";
    EXPECT_EQ(parallel.events, serial.events);
    EXPECT_EQ(parallel.stats.epochs, serial.stats.epochs);
    EXPECT_EQ(parallel.stats.handoffs, serial.stats.handoffs);
    EXPECT_EQ(parallel.stats.handoff_bytes, serial.stats.handoff_bytes);
  }
  // 8 tokens x 25 hops cross a boundary once each.
  EXPECT_EQ(serial.stats.handoffs, 8u * 25u);
  EXPECT_EQ(serial.stats.handoff_bytes, 8u * 25u * 64u);
}

TEST(ShardEngine, DomainStaysOnOneThread) {
  // Ownership is fixed for the whole run: domain d belongs to worker
  // d * W / D, so every event of a domain runs on one OS thread, the
  // blocks are contiguous, and domain 0 stays on the calling thread.
  constexpr std::size_t kDomains = 5;
  for (unsigned threads : {2u, 3u, 4u}) {
    PingWorld w(kDomains, microseconds(50));
    std::vector<std::vector<std::thread::id>> ran_on(kDomains);
    for (std::size_t d = 0; d < kDomains; ++d) {
      // Ten local events spread over many windows, plus a token that
      // visits every domain.
      for (int i = 0; i < 10; ++i) {
        w.engine.domain(d).schedule_at(microseconds(1 + 70 * i),
                                       [&ran_on, d] {
          ran_on[d].push_back(std::this_thread::get_id());
        });
      }
      w.engine.domain(d).schedule_at(microseconds(2), [&w, d] {
        w.hop(d, static_cast<int>(d), 12);
      });
    }
    w.engine.run({}, kTimeInfinity, threads);
    for (std::size_t d = 0; d < kDomains; ++d) {
      ASSERT_EQ(ran_on[d].size(), 10u);
      for (const std::thread::id& id : ran_on[d]) {
        EXPECT_EQ(id, ran_on[d].front())
            << "domain " << d << " changed thread at " << threads
            << " threads";
      }
    }
    EXPECT_EQ(ran_on[0].front(), std::this_thread::get_id())
        << threads << " threads";
    for (std::size_t d = 0; d + 1 < kDomains; ++d) {
      const bool same_owner =
          d * threads / kDomains == (d + 1) * threads / kDomains;
      EXPECT_EQ(ran_on[d].front() == ran_on[d + 1].front(), same_owner)
          << "domains " << d << "," << d + 1 << " at " << threads
          << " threads";
    }
  }
}

TEST(ShardEngine, WorkerDomainErrorPropagates) {
  // A lookahead violation raised on a worker thread (the last domain,
  // never the caller's at 2 or 4 threads) surfaces from run() once
  // every woken worker has finished the window, and the engine then
  // tears down cleanly.
  for (unsigned threads : {2u, 4u}) {
    int local_events = 0;
    {
      ShardEngine eng(4, microseconds(50));
      // Domain 2 has a run of local events in the same window, owned by
      // a worker at both thread counts; they all complete.
      for (int i = 0; i < 200; ++i) {
        eng.domain(2).schedule_at(microseconds(10) + i,
                                  [&local_events] { ++local_events; });
      }
      eng.domain(3).schedule_at(microseconds(10), [&eng] {
        eng.post(3, 0, eng.domain(3).now(), 10, [] {});  // zero latency
      });
      eng.domain(0).schedule_at(microseconds(11), [] {});
      EXPECT_THROW(eng.run({}, kTimeInfinity, threads), std::logic_error)
          << threads << " threads";
      EXPECT_EQ(eng.stats().epochs, 1u);
      EXPECT_EQ(eng.domain(0).executed(), 1u);
    }
    EXPECT_EQ(local_events, 200) << threads << " threads";
  }
}

TEST(ShardEngine, EpochsSkipIdleGaps) {
  // Two event clusters a full second apart with a 50us lookahead: a
  // naive fixed-step engine would grind through ~20k windows; epochs
  // must instead jump to the next event anywhere.
  PingWorld w(2, microseconds(50));
  w.engine.domain(0).schedule_at(microseconds(1), [&w] { w.hop(0, 1, 2); });
  w.engine.domain(1).schedule_at(seconds(1), [&w] { w.hop(1, 2, 2); });
  w.engine.run({}, kTimeInfinity, 2);
  EXPECT_LT(w.engine.stats().epochs, 20u);
  EXPECT_EQ(w.engine.stats().handoffs, 4u);
}

TEST(ShardEngine, LookaheadViolationThrows) {
  // A post arriving inside the current window would break conservative
  // causality; the engine must refuse loudly, not corrupt the order.
  ShardEngine eng(2, microseconds(50));
  eng.domain(0).schedule_at(microseconds(10), [&eng] {
    eng.post(0, 1, eng.domain(0).now(), 10, [] {});  // zero latency: illegal
  });
  EXPECT_THROW(eng.run({}, kTimeInfinity, 2), std::logic_error);
}

TEST(ShardEngine, SetupPostsRunWithoutBarriers) {
  // Outside run() there is no window to violate: post() schedules
  // directly (single-threaded setup), post_control() applies inline.
  ShardEngine eng(2, microseconds(50));
  int ran = 0;
  eng.post(0, 1, microseconds(5), 32, [&ran] { ran += 1; });
  eng.post_control(1, [&ran] { ran += 10; });
  EXPECT_EQ(ran, 10);  // control applied immediately
  eng.run({}, kTimeInfinity, 1);
  EXPECT_EQ(ran, 11);
  EXPECT_EQ(eng.domain(1).executed(), 1u);
  EXPECT_GE(eng.domain(1).now(), microseconds(5));  // clock reached the event
}

TEST(ShardEngine, ControlPostsApplyInSourceOrderAtTheBarrier) {
  // Controls staged in the same window apply serially at its end:
  // source-domain ascending, FIFO within a source — regardless of
  // which worker ran which domain first.
  for (unsigned threads : {1u, 3u}) {
    ShardEngine eng(3, microseconds(50));
    std::vector<int> applied;
    for (std::size_t d : {2u, 1u, 0u}) {
      eng.domain(d).schedule_at(microseconds(1), [&eng, &applied, d] {
        eng.post_control(d, [&applied, d] {
          applied.push_back(static_cast<int>(d));
        });
        eng.post_control(d, [&applied, d] {
          applied.push_back(static_cast<int>(d) + 10);
        });
      });
    }
    eng.run({}, kTimeInfinity, threads);
    EXPECT_EQ(applied, (std::vector<int>{0, 10, 1, 11, 2, 12}))
        << threads << " threads";
    EXPECT_EQ(eng.stats().control_posts, 6u);
  }
}

TEST(ShardEngine, DonePredicateStopsAtABarrier) {
  // done() is sampled between windows only; a run stops at the first
  // barrier where it holds, leaving later events unexecuted.
  ShardEngine eng(2, microseconds(50));
  bool flag = false;
  int late = 0;
  eng.domain(0).schedule_at(microseconds(1), [&flag] { flag = true; });
  eng.domain(1).schedule_at(seconds(5), [&late] { late = 1; });
  eng.run([&flag] { return flag; }, kTimeInfinity, 2);
  EXPECT_EQ(late, 0);
  EXPECT_TRUE(eng.domain(1).next_event_time() < kTimeInfinity);
}

TEST(ShardEngine, OneDomainStopsRightAfterDone) {
  // One domain has no cross-domain edge, so there is no window to
  // finish: done() is checked after every event and the run stops
  // right after the event that makes it true — the plain
  // Scheduler::run_while schedule — even with later events inside what
  // would have been the same lookahead window.
  ShardEngine eng(1, microseconds(50));
  bool flag = false;
  int late = 0;
  eng.domain(0).schedule_at(microseconds(1), [&flag] { flag = true; });
  eng.domain(0).schedule_at(microseconds(2), [&late] { ++late; });
  eng.domain(0).schedule_at(microseconds(30), [&late] { ++late; });
  EXPECT_EQ(eng.run([&flag] { return flag; }, kTimeInfinity, 4), 1u);
  EXPECT_EQ(late, 0);
  EXPECT_EQ(eng.domain(0).now(), microseconds(1));
  EXPECT_EQ(eng.stats().epochs, 0u);
  EXPECT_EQ(eng.run({}, kTimeInfinity, 1), 2u);
  EXPECT_EQ(late, 2);
}

TEST(ShardEngine, HorizonBoundsEveryDomain) {
  // Events beyond the horizon stay queued; domain clocks advance to
  // the horizon like Scheduler::run_until's contract.
  ShardEngine eng(2, microseconds(50));
  int ran = 0;
  eng.domain(0).schedule_at(milliseconds(1), [&ran] { ++ran; });
  eng.domain(1).schedule_at(milliseconds(100), [&ran] { ++ran; });
  eng.run({}, milliseconds(10), 2);
  EXPECT_EQ(ran, 1);
}

TEST(ShardEngine, ExecutedAndCompactionsSumDomains) {
  ShardEngine eng(3, microseconds(50));
  for (std::size_t d = 0; d < 3; ++d) {
    eng.domain(d).schedule_at(microseconds(1 + d), [] {});
  }
  eng.run({}, kTimeInfinity, 1);
  EXPECT_EQ(eng.executed(), 3u);
  EXPECT_EQ(eng.compactions(), 0u);
}

}  // namespace
}  // namespace hrmc::sim
