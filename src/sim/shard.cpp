#include "sim/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

namespace hrmc::sim {

namespace {

/// Bounded spin before yielding: on a loaded (or single-core) machine
/// the other side may not be running at all, and burning the timeslice
/// spinning would stall it further. ~100 relaxed loads cover the
/// uncontended case; after that, hand the core back.
class SpinWait {
 public:
  void pause() {
    if (++spins_ < 128) return;
    std::this_thread::yield();
  }

 private:
  unsigned spins_ = 0;
};

}  // namespace

ShardEngine::ShardEngine(std::size_t domains, SimTime lookahead)
    : lookahead_(lookahead) {
  if (domains == 0) {
    throw std::invalid_argument("ShardEngine: need at least one domain");
  }
  if (lookahead <= 0) {
    throw std::invalid_argument("ShardEngine: lookahead must be positive");
  }
  domains_.reserve(domains);
  for (std::size_t d = 0; d < domains; ++d) {
    domains_.push_back(std::make_unique<Scheduler>());
  }
  staged_.resize(domains * domains);
  dirty_.resize(domains);
  controls_.resize(domains);
}

ShardEngine::~ShardEngine() = default;

void ShardEngine::post(std::size_t src, std::size_t dst, SimTime when,
                       std::size_t wire_bytes, std::function<void()> fn) {
  if (!running_) {
    // Setup/teardown: single-threaded, no window in flight.
    domains_[dst]->schedule_at(when, std::move(fn));
    return;
  }
  if (when < window_end_) {
    throw std::logic_error(
        "ShardEngine::post: handoff at " + format_time(when) +
        " violates the lookahead window ending at " +
        format_time(window_end_) +
        " — a cross-domain link is faster than the declared minimum");
  }
  auto& box = staged_[src * domains_.size() + dst];
  if (box.empty()) dirty_[src].push_back(dst);
  box.push_back({when, static_cast<std::uint32_t>(wire_bytes),
                 std::move(fn)});
}

void ShardEngine::post_control(std::size_t src, std::function<void()> fn) {
  if (!running_) {
    fn();
    return;
  }
  controls_[src].push_back(std::move(fn));
}

void ShardEngine::flush_mailboxes() {
  const std::size_t d = domains_.size();
  for (std::size_t src = 0; src < d; ++src) {
    if (dirty_[src].empty()) continue;
    for (std::size_t dst : dirty_[src]) {
      auto& box = staged_[src * d + dst];
      for (Handoff& h : box) {
        ++stats_.handoffs;
        stats_.handoff_bytes += h.bytes;
        domains_[dst]->schedule_at(h.when, std::move(h.fn));
      }
      box.clear();
    }
    dirty_[src].clear();
  }
}

void ShardEngine::apply_controls() {
  for (auto& queue : controls_) {
    for (auto& fn : queue) {
      ++stats_.control_posts;
      fn();
    }
    queue.clear();
  }
}

bool ShardEngine::has_work(const Worker& w) {
  for (std::size_t d = w.first; d < w.last; ++d) {
    if (domains_[d]->next_event_time() < window_end_) return true;
  }
  return false;
}

void ShardEngine::run_owned(Worker& w) {
  try {
    for (std::size_t d = w.first; d < w.last; ++d) {
      if (domains_[d]->next_event_time() < window_end_) {
        domains_[d]->run_until(window_end_ - 1);
      }
    }
  } catch (...) {
    w.error = std::current_exception();
  }
}

void ShardEngine::worker_loop(Worker& w) {
  std::uint64_t seen = 0;
  for (;;) {
    SpinWait spin;
    std::uint64_t e;
    while ((e = w.wake.load(std::memory_order_acquire)) == seen) {
      spin.pause();
    }
    if (e == kStop) return;
    seen = e;
    run_owned(w);
    pending_.fetch_sub(1, std::memory_order_release);
  }
}

std::uint64_t ShardEngine::run(const std::function<bool()>& done,
                               SimTime horizon, unsigned threads) {
  const std::size_t d = domains_.size();
  if (d == 1) {
    // Nothing crosses a domain boundary, so there is nothing to wait
    // for: the one Scheduler runs plain, done() checked after every
    // event. post()/post_control() keep their outside-run() meaning.
    return domains_[0]->run_while([&done] { return !(done && done()); },
                                  horizon);
  }
  const std::size_t workers = std::min<std::size_t>(std::max(1u, threads), d);
  const std::uint64_t executed_before = executed();

  // owner(dom) = dom * workers / d: contiguous blocks, none empty since
  // workers <= d, and worker 0 (this thread) holds domain 0.
  workers_ = std::make_unique<Worker[]>(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    workers_[w].first = (w * d + workers - 1) / workers;
    workers_[w].last = ((w + 1) * d + workers - 1) / workers;
  }
  running_ = true;

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  std::vector<std::size_t> to_wake;
  to_wake.reserve(workers - 1);
  const auto join_pool = [&] {
    for (std::size_t w = 1; w <= pool.size(); ++w) {
      workers_[w].wake.store(kStop, std::memory_order_release);
    }
    for (std::thread& t : pool) t.join();
    pool.clear();
    running_ = false;
  };

  try {
    for (std::size_t w = 1; w < workers; ++w) {
      pool.emplace_back([this, w] { worker_loop(workers_[w]); });
    }
    for (;;) {
      // --- Serial phase (coordinator only, between windows). ---
      flush_mailboxes();
      apply_controls();

      if (done && done()) break;

      SimTime next = kTimeInfinity;
      for (auto& dom : domains_) {
        next = std::min(next, dom->next_event_time());
      }
      if (next == kTimeInfinity || next > horizon) break;

      // Window [next, next + L), clipped so no event beyond `horizon`
      // runs — the same cut run_while() makes in the serial harness.
      window_end_ = next + lookahead_;
      if (horizon != kTimeInfinity && window_end_ > horizon) {
        window_end_ = horizon + 1;
      }
      ++stats_.epochs;

      // --- Parallel phase: wake only the workers with work. ---
      to_wake.clear();
      for (std::size_t w = 1; w < workers; ++w) {
        if (has_work(workers_[w])) to_wake.push_back(w);
      }
      pending_.store(static_cast<unsigned>(to_wake.size()),
                     std::memory_order_relaxed);
      for (std::size_t w : to_wake) {
        workers_[w].wake.store(stats_.epochs, std::memory_order_release);
      }
      run_owned(workers_[0]);
      SpinWait spin;
      while (pending_.load(std::memory_order_acquire) != 0) spin.pause();
      for (std::size_t w = 0; w < workers; ++w) {
        if (workers_[w].error) std::rethrow_exception(workers_[w].error);
      }
    }
  } catch (...) {
    join_pool();
    throw;
  }

  join_pool();
  return executed() - executed_before;
}

std::uint64_t ShardEngine::executed() const {
  std::uint64_t total = 0;
  for (const auto& dom : domains_) total += dom->executed();
  return total;
}

std::uint64_t ShardEngine::compactions() const {
  std::uint64_t total = 0;
  for (const auto& dom : domains_) total += dom->compactions();
  return total;
}

}  // namespace hrmc::sim
