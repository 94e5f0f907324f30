// Conservative parallel discrete-event engine: several Schedulers (one
// per *domain*) advanced in lockstep epochs.
//
// The model is classic conservative PDES (YAWNS-style windows): if every
// cross-domain effect generated at time t arrives at its destination no
// earlier than t + L — L is the *lookahead*, here the service time of
// the smallest packet on the slowest cross-domain trunk — then all
// events in the window [E, E + L) are causally independent across
// domains and may run concurrently. At the window's end every domain
// stops at a barrier, staged cross-domain handoffs are spliced into
// their destination queues, and the next window starts at the earliest
// event anywhere (windows skip idle gaps, so an epoch is only as short
// as the traffic makes it).
//
// Determinism is by construction, at any thread count:
//  - Within a domain, its Scheduler's (when, seq) order is untouched.
//    Each domain is run by one fixed OS thread for the whole run, and
//    which thread that is never matters because domains share no
//    mutable state inside a window.
//  - Handoffs are staged per (src, dst) pair by the one thread that
//    owns src (lock-free), and spliced at the barrier in a fixed order
//    (src ascending, first-touch dst order, FIFO within a pair), so
//    destination sequence numbers are reproducible.
//  - Control posts (multicast grafts — zero-latency cross-domain state
//    changes) are deferred to the barrier and applied serially in the
//    same fixed order, quantizing them to the epoch boundary.
//
// Consequently a run at 8 threads is bit-identical — same event order
// per domain, same PRNG draws, same trace records — to the same run at
// 1 thread. "Serial" for comparison purposes *is* the 1-thread
// execution of this engine.
//
// An engine with exactly one domain has no cross-domain edge and so no
// lookahead to respect: run() skips epochs, barriers and mailboxes and
// runs the one Scheduler plain, checking done() after every event. That
// is the schedule of every unsharded harness::run_transfer.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace hrmc::sim {

class ShardEngine {
 public:
  struct Stats {
    std::uint64_t epochs = 0;         ///< barrier windows executed
    std::uint64_t handoffs = 0;       ///< cross-domain packet posts
    std::uint64_t handoff_bytes = 0;  ///< wire bytes those posts carried
    std::uint64_t control_posts = 0;  ///< boundary-applied control ops
  };

  /// `lookahead` must be positive: it is the guaranteed minimum latency
  /// of every cross-domain effect, and the epoch window width.
  ShardEngine(std::size_t domains, SimTime lookahead);
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  [[nodiscard]] std::size_t domain_count() const { return domains_.size(); }
  [[nodiscard]] Scheduler& domain(std::size_t d) { return *domains_[d]; }
  [[nodiscard]] SimTime lookahead() const { return lookahead_; }

  /// Stages `fn` to run in domain `dst` at absolute time `when`. Called
  /// from domain `src`'s events (on its owning thread); spliced
  /// into dst's queue at the next barrier. `when` must honor the
  /// lookahead — at least the current window's end — or the engine
  /// throws: a violation means the topology's cross-domain latency
  /// bound is wrong, and silently accepting it would corrupt causality.
  /// Outside run() (setup/teardown, single-threaded) it schedules
  /// directly.
  void post(std::size_t src, std::size_t dst, SimTime when,
            std::size_t wire_bytes, std::function<void()> fn);

  /// Stages `fn` to run serially at the next epoch barrier — for
  /// cross-domain state changes with no modeled latency (IGMP-style
  /// grafts). Applied in (src ascending, FIFO) order. Outside run() it
  /// executes immediately.
  void post_control(std::size_t src, std::function<void()> fn);

  /// Runs all domains until no events remain anywhere, `done()` holds
  /// at a barrier, or every next event lies beyond `horizon`. `done`
  /// may be empty. `threads` >= 1 is the worker count (clamped to the
  /// domain count); the result is identical for every value. Returns
  /// the number of events executed by this call. With one domain this
  /// is Scheduler::run_while: done() is checked after every event, no
  /// epoch is counted, and the clock stays at the last event.
  std::uint64_t run(const std::function<bool()>& done, SimTime horizon,
                    unsigned threads);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Events executed, summed over domains.
  [[nodiscard]] std::uint64_t executed() const;
  /// Tombstone sweeps, summed over domains.
  [[nodiscard]] std::uint64_t compactions() const;

 private:
  struct Handoff {
    SimTime when = 0;
    std::uint32_t bytes = 0;
    std::function<void()> fn;
  };

  /// One worker thread's fixed share of the domains and its wake word.
  /// Padded to a cache line so the coordinator's store to one worker's
  /// word never invalidates another's.
  struct alignas(64) Worker {
    /// The epoch this worker is asked to run; kStop tells it to exit.
    std::atomic<std::uint64_t> wake{0};
    std::size_t first = 0;  ///< owned domains are [first, last)
    std::size_t last = 0;
    std::exception_ptr error;  ///< first failure in an owned domain
  };
  static constexpr std::uint64_t kStop = ~std::uint64_t{0};

  void flush_mailboxes();
  void apply_controls();
  /// True if one of `w`'s domains has an event inside the window.
  [[nodiscard]] bool has_work(const Worker& w);
  /// Runs `w`'s domains that have work through the window; stops at
  /// the first exception and records it in `w.error`.
  void run_owned(Worker& w);
  void worker_loop(Worker& w);

  std::vector<std::unique_ptr<Scheduler>> domains_;
  SimTime lookahead_;

  // Mailboxes: staged_[src * D + dst] is appended only by src's owner
  // thread during an epoch and drained only at the barrier; dirty_[src]
  // lists the dst indexes src touched, in first-touch order, so the
  // flush walks exactly the non-empty pairs.
  std::vector<std::vector<Handoff>> staged_;
  std::vector<std::vector<std::size_t>> dirty_;
  std::vector<std::vector<std::function<void()>>> controls_;

  Stats stats_;
  bool running_ = false;
  SimTime window_end_ = 0;  ///< current epoch's end (posts must be >= this)

  // Epoch barrier. Domain d belongs to worker d * W / D for the whole
  // run (a contiguous block, so domain 0 stays on the calling thread,
  // worker 0). Per epoch the coordinator sets pending_ to the number of
  // workers it wakes, stores the epoch number into just their wake
  // words, runs its own block, and waits for pending_ to drain. The
  // wake store (release) publishes window_end_; each worker's
  // decrement (release) publishes its domains' mailboxes and error.
  std::unique_ptr<Worker[]> workers_;
  alignas(64) std::atomic<unsigned> pending_{0};
};

}  // namespace hrmc::sim
