// Sharded-engine scaling: the million-receiver scenario executed by
// the conservative-time ShardEngine at 1, 2, 4 and 8 worker threads,
// plus a feedback-heavy few-domain cell at 1 and 2.
//
// The big cell is the 1M-leaf modeled-receiver build from the
// group-size sweep, respread over eight router subtrees (= eight shard
// domains plus the sender/backbone domain) and run on 10 Mbit trunks:
// the engine's lookahead is one minimum-wire-packet serialization time
// on the trunk, so slower trunks mean wider epoch windows and more
// events executed per barrier -- the regime conservative parallelism
// pays in. The feedback cell (Fig 15 Test 5, 100 real receivers, three
// domains) is the opposite regime: short epochs, where the barrier's
// cost decides whether a second thread helps at all.
//
// Two things are checked, with different teeth:
//
//   1. Bit-identity (always enforced, any core count): every run of
//      both cells must reproduce its first 1-thread run exactly --
//      event count, PRNG end-state digest, epoch/handoff/compaction
//      accounting. A divergence is a determinism bug, never a perf
//      tradeoff, so the binary exits non-zero even on a single-core box.
//   2. Throughput scaling (enforced only where the hardware can
//      deliver it): >=1.6x events/sec at 2 threads and >=2.8x at 4 in
//      the full run, skipped with a note when hardware_concurrency()
//      is below the thread count (the smoke gate re-enforces the
//      2-thread floor in CI via check_bench.py --suite shard). The
//      feedback cell's speedup_2t_feedback is recorded, not gated.
//
// Every speedup is the median over five repeats of the per-repeat
// ratio to the same repeat's 1-thread run; repeats alternate the order
// of thread counts, and the min and max are recorded beside the median.
// `--smoke` runs the 1M topology with a smaller file at 1/2 threads
// only; full mode adds 4/8 threads and the in-binary scaling floors.
// Emits BENCH_shard.json when HRMC_BENCH_JSON_DIR is set.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"

using namespace hrmc;
using namespace hrmc::harness;
using namespace hrmc::bench;

namespace {

/// Leaves represented by one ModeledReceiver slot.
constexpr std::uint32_t kLeavesPerSlot = 1000;
/// Router subtrees: one shard domain each, plus the sender domain.
constexpr std::size_t kGroups = 8;
/// Independent per-leaf tail loss (same knob as the group-size sweep):
/// enough that every subtree exercises NAK -> repair across the trunk.
constexpr double kLeafLoss = 1e-5;
constexpr std::uint64_t kLeaves = 1'000'000;

Scenario cell(std::uint64_t file_bytes) {
  const std::size_t slots =
      static_cast<std::size_t>((kLeaves + kLeavesPerSlot - 1) /
                               kLeavesPerSlot);
  Scenario sc;
  sc.name = "shard_" + std::to_string(kLeaves);
  sc.topo.network_bps = 10e6;
  sc.topo.seed = sim::substream_seed(kBenchSeed, sc.name + ":topo");
  for (std::size_t g = 0; g < kGroups; ++g) {
    const std::size_t lo = slots * g / kGroups;
    const std::size_t hi = slots * (g + 1) / kGroups;
    sc.topo.groups.push_back(net::group_a(static_cast<int>(hi - lo)));
  }
  sc.proto.sndbuf = 512 * 1024;
  sc.proto.rcvbuf = 512 * 1024;
  sc.proto.join_batch_threshold = 64;
  sc.proto.feedback_seed = kBenchSeed;
  sc.workload.file_bytes = file_bytes;
  sc.workload.sink_read_rate_bps = 0.0;
  sc.seed = kBenchSeed + kLeaves;
  const std::uint64_t base = kLeaves / slots;
  const std::uint64_t extra = kLeaves % slots;
  for (std::size_t i = 0; i < slots; ++i) {
    ModeledGroup mg;
    mg.receiver = i;
    mg.population = static_cast<std::uint32_t>(base + (i < extra ? 1 : 0));
    mg.leaf_loss = kLeafLoss;
    sc.modeled.push_back(mg);
  }
  sc.shard.enabled = true;
  return sc;
}

/// The replay-identity tuple: if any of these differ between thread
/// counts, the engine's schedule depended on the worker count.
bool identical(const RunResult& a, const RunResult& b, std::string* why) {
  auto check = [why](const char* field, std::uint64_t x, std::uint64_t y) {
    if (x == y) return true;
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s: %" PRIu64 " vs %" PRIu64, field, x,
                  y);
    *why = buf;
    return false;
  };
  return check("events_executed", a.events_executed, b.events_executed) &&
         check("rng_digest", a.rng_digest, b.rng_digest) &&
         check("sched_compactions", a.sched_compactions,
               b.sched_compactions) &&
         check("shard_epochs", a.shard_epochs, b.shard_epochs) &&
         check("shard_handoffs", a.shard_handoffs, b.shard_handoffs) &&
         check("shard_handoff_bytes", a.shard_handoff_bytes,
               b.shard_handoff_bytes);
}

/// Feedback-heavy few-domain cell: Fig 15 Test 5 (100 receivers over
/// groups B and C, so three domains) with a smoke-size file. Its epochs
/// hold ~27 events, against ~340 in the 1M cell, so the barrier's own
/// cost is what its 2-thread speedup measures.
Scenario feedback_cell() {
  Workload wl;
  wl.file_bytes = kMiB / 2;
  wl.sink_read_rate_bps = kSimAppReadBps;
  Scenario sc = test_case_scenario(5, 100, 10e6, 256 * 1024, wl, kBenchSeed);
  sc.shard.enabled = true;
  return sc;
}

/// One cell's runs at every thread count, `reps` times over.
struct Series {
  std::vector<unsigned> threads;
  std::vector<std::vector<double>> wall_s;  ///< [thread index][repeat]
  RunResult serial;                         ///< first 1-thread run
  bool bit_identical = true;

  /// Per-repeat speedups of thread index `i` over the 1-thread run of
  /// the same repeat.
  [[nodiscard]] std::vector<double> speedups(std::size_t i) const {
    std::vector<double> v;
    for (std::size_t r = 0; r < wall_s[i].size(); ++r) {
      v.push_back(wall_s[0][r] / wall_s[i][r]);
    }
    return v;
  }
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Runs `base` `reps` times at each thread count (threads[0] must be
/// 1), ascending on even repeats and descending on odd ones, so a drift
/// in host speed hits every count alike. Every run must reproduce the
/// first 1-thread run's replay-identity tuple.
Series measure(const Scenario& base, const std::vector<unsigned>& threads,
               int reps, const std::string& label) {
  Series s;
  s.threads = threads;
  s.wall_s.assign(threads.size(), {});
  for (int r = 0; r < reps; ++r) {
    for (std::size_t k = 0; k < threads.size(); ++k) {
      const std::size_t i = r % 2 == 0 ? k : threads.size() - 1 - k;
      Scenario sc = base;
      sc.shard.threads = threads[i];
      const double t0 = wall_seconds();
      RunResult res = run_transfer(sc);
      s.wall_s[i].push_back(wall_seconds() - t0);
      if (r == 0 && k == 0) {
        s.serial = std::move(res);
        continue;
      }
      std::string why;
      if (!identical(s.serial, res, &why)) {
        std::cout << "FAIL: " << label << " at " << threads[i]
                  << " threads diverged from serial -- " << why << "\n";
        s.bit_identical = false;
      }
    }
  }
  return s;
}

std::string f2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

/// Prints `s` as a table and records it under entry `name`, each key
/// suffixed with `tag`: median wall time and events/sec per thread
/// count, and the median, min and max per-repeat speedup. Returns the
/// median speedups, indexed like `s.threads`.
std::vector<double> report(Sweep& sweep, const std::string& name,
                           const std::string& tag, const Series& s) {
  Table t({"threads", "wall s", "events/s", "speedup", "min", "max",
           "efficiency", "epochs", "handoffs"});
  std::vector<double> medians;
  for (std::size_t i = 0; i < s.threads.size(); ++i) {
    const double wall = median(s.wall_s[i]);
    const double eps = static_cast<double>(s.serial.events_executed) / wall;
    const std::vector<double> sp = s.speedups(i);
    const double speedup = median(sp);
    const double lo = *std::min_element(sp.begin(), sp.end());
    const double hi = *std::max_element(sp.begin(), sp.end());
    const double efficiency = speedup / static_cast<double>(s.threads[i]);
    medians.push_back(speedup);
    const std::string suffix = std::to_string(s.threads[i]) + "t";
    sweep.metric(name, "wall_s_" + suffix + tag, wall);
    sweep.metric(name, "events_per_sec_" + suffix + tag, eps);
    if (s.threads[i] > 1) {
      sweep.metric(name, "speedup_" + suffix + tag, speedup);
      sweep.metric(name, "speedup_" + suffix + tag + "_min", lo);
      sweep.metric(name, "speedup_" + suffix + tag + "_max", hi);
      sweep.metric(name, "efficiency_" + suffix + tag, efficiency);
    }
    t.add_row({std::to_string(s.threads[i]), f2(wall),
               std::to_string(static_cast<std::uint64_t>(eps)), f2(speedup),
               f2(lo), f2(hi), f2(efficiency),
               std::to_string(s.serial.shard_epochs),
               std::to_string(s.serial.shard_handoffs)});
  }
  t.print(std::cout);
  std::cout << "\nserial: " << s.serial.events_executed << " events, "
            << s.serial.shard_domains << " domains, "
            << s.serial.shard_epochs << " epochs, median of "
            << s.wall_s[0].size() << " alternating repeats\n\n";
  return medians;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  banner("Sharded engine: 1M modeled receivers, 1/2/4/8 worker threads",
         smoke ? "smoke: 1/2 threads, small file; identity always enforced"
               : "full: scaling floors enforced where the hardware allows");

  const std::uint64_t file_bytes = smoke ? 256 * 1024 : kMiB;
  std::vector<unsigned> threads{1, 2};
  if (!smoke) {
    threads.push_back(4);
    threads.push_back(8);
  }
  // A single sample on a shared runner swings by tens of percent, so
  // the gate reads a median.
  constexpr int kReps = 5;

  const Scenario sc = cell(file_bytes);
  Sweep sweep("shard");
  const std::string name = smoke ? "shard_smoke" : "shard_full";

  std::cout << "1M-leaf cell\n";
  const Series big = measure(sc, threads, kReps, "1M cell");
  const std::vector<double> speedup = report(sweep, name, "", big);
  std::cout << "Fig 15 Test 5 feedback cell, 100 receivers\n";
  const Series fb = measure(feedback_cell(), {1, 2}, kReps, "feedback cell");
  report(sweep, name, "_feedback", fb);

  bool ok = true;
  for (const RunResult* r : {&big.serial, &fb.serial}) {
    if (!r->completed) {
      std::cout << "FAIL: the " << (r == &big.serial ? "1M" : "feedback")
                << " transfer did not complete\n";
      ok = false;
    }
  }
  const bool bit_identical = big.bit_identical && fb.bit_identical;
  ok = ok && bit_identical;

  sweep.metric(name, "leaves", static_cast<double>(kLeaves));
  sweep.metric(name, "slots", static_cast<double>(sc.modeled.size()));
  sweep.metric(name, "file_bytes", static_cast<double>(file_bytes));
  sweep.metric(name, "domains", static_cast<double>(big.serial.shard_domains));
  sweep.metric(name, "completed", big.serial.completed ? 1.0 : 0.0);
  sweep.metric(name, "bit_identical", bit_identical ? 1.0 : 0.0);
  sweep.metric(name, "events", static_cast<double>(big.serial.events_executed));
  sweep.metric(name, "epochs", static_cast<double>(big.serial.shard_epochs));
  sweep.metric(name, "handoffs",
               static_cast<double>(big.serial.shard_handoffs));
  sweep.metric(name, "handoff_bytes",
               static_cast<double>(big.serial.shard_handoff_bytes));
  sweep.metric(name, "compactions",
               static_cast<double>(big.serial.sched_compactions));
  sweep.metric(name, "repeats", kReps);
  sweep.metric(name, "hardware_threads", static_cast<double>(hw));
  sweep.metric(name, "completed_feedback", fb.serial.completed ? 1.0 : 0.0);
  sweep.metric(name, "domains_feedback",
               static_cast<double>(fb.serial.shard_domains));
  sweep.metric(name, "events_feedback",
               static_cast<double>(fb.serial.events_executed));
  sweep.metric(name, "epochs_feedback",
               static_cast<double>(fb.serial.shard_epochs));

  // Scaling floors: only meaningful where the hardware has the cores.
  // The 1-core container this repo develops in timeshares every worker
  // onto one CPU, so speedups there hover near (or below) 1.0 by
  // construction -- identity is the property that must hold anywhere.
  if (!smoke) {
    struct Floor {
      unsigned threads;
      double speedup;
      double floor;
    };
    for (const Floor& f : {Floor{2, speedup[1], 1.6},
                           Floor{4, speedup[2], 2.8}}) {
      if (hw < f.threads) {
        std::cout << "skip: " << f.threads << "-thread floor ("
                  << f2(f.floor) << "x) needs >= " << f.threads
                  << " hardware threads, have " << hw << "\n";
        continue;
      }
      if (f.speedup < f.floor) {
        std::cout << "FAIL: " << f.threads << "-thread speedup "
                  << f2(f.speedup) << "x is below the " << f2(f.floor)
                  << "x floor\n";
        ok = false;
      } else {
        std::cout << "ok: " << f.threads << "-thread speedup "
                  << f2(f.speedup) << "x >= " << f2(f.floor) << "x\n";
      }
    }
  }

  std::cout << (ok ? "\nshard scaling passed\n" : "\nshard scaling FAILED\n");
  return ok ? 0 : 1;
}
