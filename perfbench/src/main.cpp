// hrmc_perfbench — the repository's end-to-end and per-layer benchmark.
//
//   hrmc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--part <j> --parts <k>] [--smoke] [--commit <id>]
//                  [--source-digest <hex>] [--spans <file.csv>]
//
// Every cell goes through the public entry point harness::run_transfer.
// With --trace 1 the last stdout line is one JSON object {correct,
// attempted, failed, metrics}, preceded by the run's provenance. With
// --trace 0 the binary measures part j of k of a run: perfbench/run.py
// starts the k parts one after another, each with its share of the
// run's seconds, and folds their "part {...}" lines (the last stdout
// line of each) into the run's result. Splitting a run over k processes
// spreads its k set-up samples over the whole run.
//
// Workloads, and why each was chosen:
//   wan_feedback   Fig 15(c) Test 5 cell: test_case_scenario(5, 100
//                  receivers, 10 Mbit/s, 256K), 10 MiB, 64 Mbit/s app
//                  read rate, on ShardOptions{enabled, threads = 2}.
//                  Control traffic (NAKs, UPDATEs, rate requests,
//                  retransmissions) on top of the per-byte path of 100
//                  sinks, 100-way fan-out and 100 sockets' timers. It
//                  runs sharded because on a shared 4-vCPU host the
//                  single-thread cell's time swung 1.6x with neighbours'
//                  load over minutes, the 2-thread cell's 1.25x.
//   scale_sharded  shard_scale's 1M-leaf cell: 1000 ModeledReceiver slots
//                  of 1000 leaves over 8 subtrees, 10 Mbit/s trunks,
//                  leaf_loss 1e-5, join_batch_threshold 64, 4 MiB, on
//                  ShardOptions{enabled, threads = 2}. No sink apps:
//                  scheduler, checksum and net fan-out dominate, and it
//                  has the only shard-barrier work and the largest
//                  set-up and memory.
// The Fig 12 LAN cell (lan_bulk: 3 receivers, 100 MiB, per-byte path
// only) is not a workload: its cells swing by up to 1.8x with the load
// of neighbouring tenants in phases of 10-60 s, so its host times did
// not repeat within the benchmark's bounds. Its layers (app
// read/verify/fill, checksum) are also the largest shares of a
// wan_feedback cell.
//
// End-to-end metrics (--trace 0; host times are medians over the run's
// timed cells, "sim" metrics repeat exactly for a given seed):
//   sim_mbit_per_wall_s  stream payload Mbit / host seconds per cell
//   cell_wall_s          host seconds per run_transfer cell
//   setup_s              process start -> first timed cell: cell
//                        generation plus one untimed warm-up cell (the
//                        run's first cell shape at smoke size: it runs
//                        every one-time path, not the per-byte bulk the
//                        timed cells measure). Median over the run's parts
//   peak_rss_mb          largest VmHWM of the run's parts
//   cell_ok_ratio        1 - failed cells / attempted cells. A cell fails
//                        if it did not complete, failed verify_ok, hit a
//                        stream error, or repeated a seed (within a part,
//                        or the warm-up cell across parts) with a
//                        different (events_executed, rng_digest) or sim
//                        outcome
//   sim_goodput_mbps     median RunResult::throughput_mbps over the run's
//                        distinct cells (sim)
//   feedback_pkts_per_mb NAK + CONTROL (URG included once) + UPDATE +
//                        AGG_UPDATE + JOIN + LEAVE packets arriving at the
//                        sender per MiB of stream, summed over the run's
//                        distinct cells (sim)
//
// Per-layer metrics (--trace 1) and the end-to-end metric each should
// move:
//   app.*    self_s, share, bytes_read, verify/fill_ns_per_byte
//            -> cell_wall_s, sim_mbit_per_wall_s on wan_feedback; no effect
//               on scale_sharded (no sink apps).
//   wire.*   pkts_tx, pkts_rx, checksum_ns_per_byte, header_ns, est_s,
//            est_share, bad_packets (must be 0)
//            -> cell_wall_s on wan_feedback and scale_sharded; no sim
//               metric.
//   proto.*  rx_self_s, rx_ns_per_pkt, naks_rx, updates_rx (UPDATE +
//            AGG_UPDATE), rate_requests_rx, probes_sent, retransmissions,
//            release_decisions, retx_ratio, dup_ratio,
//            rescan_work_per_release
//            -> feedback_pkts_per_mb, sim_goodput_mbps on wan_feedback.
//   net.*    uplink_self_s, host_rx_self_s, router_loss_drops,
//            nic_tx_drops -> cell_wall_s on wan_feedback, scale_sharded.
//   kern.*   skb_block_allocs, skb_clones, skb_cow_copies,
//            skb_pool_hit_ratio, skb_peak_bytes
//            -> peak_rss_mb, cell_wall_s on all workloads.
//   sim.*    events, events_per_wall_s, ns_per_event, compactions,
//            rest_self_s, rest_share
//            -> cell_wall_s on scale_sharded and wan_feedback. events/s is
//               a layer metric only: batching events lowers it while
//               helping wall time.
//   shard.*  epochs, events_per_epoch, handoffs, handoff_bytes,
//            control_posts, wall_us_per_epoch -> cell_wall_s on both
//            workloads (both run on the shard engine).
//   trace.overhead_ratio  traced cell / untraced cell, same seed, both
//                         timed over the whole call (construction, loop
//                         and teardown).
//   harness.rig_identity  1 when every traced cell reproduced the
//                         untraced cell's (events_executed, rng_digest).
//   harness.cell_fail_ratio  failed / attempted cells of the traced run.
//
// Where the per-layer numbers come from:
//   * Counts: RunResult and kern::skbuff_stats() of an untraced cell run
//     on a freshly trimmed buffer pool. The skbuff counters are
//     thread-local, so they (and the protocol counts) come from a
//     1-thread run of the same seed, whose schedule is bit-identical to
//     the 2-thread one.
//   * Self times: traced.hpp's proxies on a legacy-engine replica of the
//     cell, gated on reproducing run_transfer's identity tuple. The
//     replica runs the workload's cell unsharded (the single-Scheduler
//     schedule); barrier waits need in-program spans.
//     wire.pkts_* count the traced cell's NIC->router deliveries (tx)
//     and Transport::rx calls (rx).
//   * Estimates: calibrate.hpp kernels at the run's mean packet size and
//     chunk size; wire.est_s = packets x header_ns + payload bytes x
//     checksum_ns_per_byte.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "harness/scenario.hpp"
#include "hrmc/wire.hpp"
#include "kern/skbuff.hpp"
#include "sim/random.hpp"
#include "traced.hpp"

using namespace hrmc;
using namespace hrmc::harness;

namespace {

using Clock = std::chrono::steady_clock;

/// Taken during static initialisation: the closest in-process stand-in
/// for process start that setup_s can measure from.
const Clock::time_point g_process_start = Clock::now();

constexpr std::uint64_t kMiB = 1024 * 1024;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- Workloads -----------------------------------------------------------

Scenario make_wan_feedback(std::uint64_t seed, bool smoke) {
  Workload wl;
  wl.file_bytes = smoke ? kMiB / 2 : 10 * kMiB;
  wl.sink_read_rate_bps = 64e6;
  Scenario sc = test_case_scenario(5, 100, 10e6, 256 * 1024, wl, seed);
  sc.shard.enabled = true;
  sc.shard.threads = 2;
  return sc;
}

Scenario make_scale_sharded(std::uint64_t seed, bool smoke) {
  constexpr std::size_t kSlots = 1000;
  constexpr std::uint32_t kLeavesPerSlot = 1000;
  constexpr std::size_t kGroups = 8;
  Scenario sc;
  sc.name = "scale_sharded";
  sc.topo.network_bps = 10e6;
  sc.topo.seed = sim::substream_seed(seed, "topo");
  for (std::size_t g = 0; g < kGroups; ++g) {
    const std::size_t lo = kSlots * g / kGroups;
    const std::size_t hi = kSlots * (g + 1) / kGroups;
    sc.topo.groups.push_back(net::group_a(static_cast<int>(hi - lo)));
  }
  sc.proto.sndbuf = 512 * 1024;
  sc.proto.rcvbuf = 512 * 1024;
  sc.proto.join_batch_threshold = 64;
  sc.proto.feedback_seed = seed;
  sc.workload.file_bytes = smoke ? kMiB / 8 : 4 * kMiB;
  sc.workload.sink_read_rate_bps = 0.0;
  sc.seed = seed;
  for (std::size_t i = 0; i < kSlots; ++i) {
    ModeledGroup mg;
    mg.receiver = i;
    mg.population = kLeavesPerSlot;
    mg.leaf_loss = 1e-5;
    sc.modeled.push_back(mg);
  }
  sc.shard.enabled = true;
  sc.shard.threads = 2;
  return sc;
}

struct WorkloadDef {
  const char* name;
  unsigned threads;      ///< worker threads a cell runs on
  std::size_t distinct;  ///< distinct cell seeds per run
  Scenario (*make)(std::uint64_t, bool);
};

// Every run covers all `distinct` cells, so the sim metrics repeat
// exactly for a seed. `distinct` is sized so that pass takes well under
// a run's measuring time on a 4-vCPU box even when neighbouring tenants
// halve its speed, and so each of run.py's parts repeats one of its
// cells (the repeated-seed check).
constexpr WorkloadDef kWorkloads[] = {
    {"wan_feedback", 2, 10, &make_wan_feedback},
    {"scale_sharded", 2, 8, &make_scale_sharded},
};

std::uint64_t cell_seed(const WorkloadDef& w, std::uint64_t seed,
                        const std::string& cell) {
  return sim::substream_seed(seed, std::string(w.name) + "/" + cell);
}

/// The run's cells: `distinct` scenarios whose seeds derive from the
/// workload seed.
std::vector<Scenario> make_cells(const WorkloadDef& w, std::uint64_t seed,
                                 bool smoke) {
  const std::size_t n = smoke ? 1 : w.distinct;
  std::vector<Scenario> cells;
  for (std::size_t k = 0; k < n; ++k) {
    cells.push_back(w.make(cell_seed(w, seed, "cell" + std::to_string(k)),
                           smoke));
  }
  return cells;
}

// --- Failure accounting --------------------------------------------------

std::uint64_t feedback_packets(const RunResult& r) {
  const proto::SenderStats& s = r.sender;
  return s.naks_received + s.rate_requests_received + s.updates_received +
         s.agg_updates_received + s.joins_received + s.leaves_received;
}

/// Counts cells and failures. A cell fails if it did not complete,
/// failed verification, hit a stream error, or repeated an earlier
/// cell's key (same scenario on the same engine) with a different
/// identity tuple or sim outcome — a mismatch is a failure, not noise.
class CellLedger {
 public:
  void record(std::size_t key, const RunResult& r) {
    ++attempted_;
    std::string why;
    if (!r.completed) why = "did not complete";
    if (!r.verify_ok) why = "verify failed";
    if (r.any_stream_error) why = "stream error";
    const Fingerprint fp{r.events_executed, r.rng_digest,
                         r.throughput_mbps, feedback_packets(r)};
    const auto [it, fresh] = seen_.emplace(key, fp);
    if (!fresh && !(it->second == fp)) {
      why = "repeated seed diverged (events_executed, rng_digest)";
    }
    fail_if(!why.empty(), why);
  }

  void fail_if(bool failed, const std::string& why) {
    if (!failed) return;
    ++failed_;
    std::cerr << "cell failed: " << why << "\n";
  }
  void count_attempt() { ++attempted_; }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  struct Fingerprint {
    std::uint64_t events;
    std::uint64_t digest;
    double throughput;
    std::uint64_t feedback;
    bool operator==(const Fingerprint&) const = default;
  };
  std::map<std::size_t, Fingerprint> seen_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- Output --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// The last stdout line. A non-finite value makes the run incorrect
/// (and is written as 0 so the line stays valid JSON).
void print_result(bool correct, const CellLedger& ledger,
                  const std::vector<Metric>& metrics) {
  std::string m;
  for (const Metric& x : metrics) {
    double v = x.value;
    if (!std::isfinite(v)) {
      std::cerr << "metric " << x.name << " is not finite\n";
      correct = false;
      v = 0.0;
    }
    if (!m.empty()) m += ", ";
    m += json_string(x.name) + ": {\"value\": " + json_number(v) +
         ", \"unit\": " + json_string(x.unit) + "}";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << ledger.attempted()
            << ", \"failed\": " << ledger.failed() << ", \"metrics\": {" << m
            << "}}" << std::endl;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

// --- Arguments -----------------------------------------------------------

struct Args {
  const WorkloadDef* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  std::size_t part = 0;   ///< which part of the run this process measures
  std::size_t parts = 1;  ///< processes the run is split over
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string spans_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      for (const WorkloadDef& w : kWorkloads) {
        if (v == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) {
        throw std::invalid_argument("unknown workload " + v);
      }
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
      have_seconds = a.seconds > 0.0;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = v == "1";
      have_trace = true;
    } else if (flag == "--part") {
      a.part = std::stoull(v);
    } else if (flag == "--parts") {
      a.parts = std::stoull(v);
    } else if (flag == "--commit") {
      a.commit = v;
    } else if (flag == "--source-digest") {
      a.source_digest = v;
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload == nullptr || !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument(
        "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
  }
  if (a.parts == 0 || a.part >= a.parts) {
    throw std::invalid_argument("--part must be below --parts");
  }
  if (a.trace && a.parts != 1) {
    throw std::invalid_argument("--parts needs --trace 0");
  }
  return a;
}

void print_provenance(const Args& a, std::size_t cells_per_run,
                      std::size_t distinct) {
  std::cout << "provenance {\"commit\": " << json_string(a.commit)
            << ", \"source_digest\": " << json_string(a.source_digest)
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"hrmc_tracing\": " << HRMC_TRACING
            << ", \"hardware_concurrency\": "
            << std::thread::hardware_concurrency()
            << ", \"workload\": " << json_string(a.workload->name)
            << ", \"threads\": " << a.workload->threads
            << ", \"workload_seed\": " << a.seed
            << ", \"cells_per_run\": " << cells_per_run
            << ", \"distinct_cells\": " << distinct
            << ", \"part\": " << a.part << ", \"parts\": " << a.parts
            << ", \"trace\": " << (a.trace ? 1 : 0)
            << ", \"smoke\": " << (a.smoke ? 1 : 0) << "}\n";
}

// --- End-to-end run (--trace 0) ------------------------------------------

/// A cell's identity tuple and sim outcome, as JSON members.
std::string outcome_json(const RunResult& r) {
  return "\"events\": " + std::to_string(r.events_executed) +
         ", \"digest\": " + std::to_string(r.rng_digest) +
         ", \"goodput_mbps\": " + json_number(r.throughput_mbps) +
         ", \"feedback\": " + std::to_string(feedback_packets(r));
}

/// One timed cell's record: what run.py needs to fold the run's parts.
std::string cell_json(std::size_t k, double wall_s, const RunResult& r,
                      std::uint64_t bytes) {
  return "{\"k\": " + std::to_string(k) +
         ", \"wall_s\": " + json_number(wall_s) + ", " + outcome_json(r) +
         ", \"bytes\": " + std::to_string(bytes) + "}";
}

/// Measures part a.part of a.parts of a run: set-up, then its slice of
/// the distinct cells, each at least once and round-robin until the
/// part's seconds are used up. The last stdout line is
/// "part {setup_s, attempted, failed, peak_rss_mb, warmup, cells}".
int run_end_to_end(const Args& a) {
  const WorkloadDef& w = *a.workload;
  CellLedger ledger;

  // Set-up, timed once from process start: cell generation plus one
  // untimed warm-up cell. Every part runs the same warm-up cell, so
  // run.py can check it repeats across processes.
  const std::vector<Scenario> cells = make_cells(w, a.seed, a.smoke);
  const RunResult warm = run_transfer(w.make(cell_seed(w, a.seed, "warmup"),
                                             /*smoke=*/true));
  constexpr std::size_t kWarmupKey = ~std::size_t{0};
  ledger.record(kWarmupKey, warm);
  const double setup_s = seconds_since(g_process_start);

  const std::size_t lo = cells.size() * a.part / a.parts;
  const std::size_t hi = cells.size() * (a.part + 1) / a.parts;
  if (lo == hi) throw std::invalid_argument("more parts than distinct cells");
  std::string cell_records;
  std::size_t timed = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;
       i < hi - lo || (!a.smoke && seconds_since(start) < a.seconds); ++i) {
    const std::size_t k = lo + i % (hi - lo);
    const Clock::time_point t0 = Clock::now();
    const RunResult res = run_transfer(cells[k]);
    const double w_s = seconds_since(t0);
    ledger.record(k, res);
    std::cout << "cell " << i << " seed_index " << k << " wall_s " << w_s
              << " events " << res.events_executed << " goodput_mbps "
              << res.throughput_mbps << " feedback "
              << feedback_packets(res) << "\n";
    if (!cell_records.empty()) cell_records += ", ";
    cell_records += cell_json(k, w_s, res, cells[k].workload.file_bytes);
    ++timed;
  }

  print_provenance(a, timed, cells.size());
  std::cout << "part {\"setup_s\": " << json_number(setup_s)
            << ", \"attempted\": " << ledger.attempted()
            << ", \"failed\": " << ledger.failed()
            << ", \"peak_rss_mb\": " << json_number(peak_rss_mib())
            << ", \"warmup\": {" << outcome_json(warm) << "}"
            << ", \"cells\": [" << cell_records << "]}" << std::endl;
  return 0;
}

// --- Traced run (--trace 1) ----------------------------------------------

/// One pass of the traced loop: the untraced legacy-engine cell, its
/// traced replica, and (sharded workloads) the untraced sharded cell.
struct TracedPass {
  double untraced_legacy_s = 0.0;
  double traced_legacy_s = 0.0;  ///< the whole run_traced call
  double engine_wall_s = 0.0;  ///< the workload's own engine
  RunResult engine_run;
  perfbench::TracedCell traced;
  std::array<perfbench::SpanRecorder::Totals, perfbench::kLayerCount> layers{};
};

int run_traced_workload(const Args& a) {
  using perfbench::Layer;
  const WorkloadDef& w = *a.workload;
  CellLedger ledger;
  const std::vector<Scenario> cells = make_cells(w, a.seed, a.smoke);
  const Scenario& ref = cells[0];
  const bool sharded = ref.shard.enabled;
  Scenario legacy = ref;
  legacy.shard = ShardOptions{};
  Scenario counts = ref;
  if (sharded) counts.shard.threads = 1;
  // Ledger keys: 0 = the workload's engine (any thread count), 1 = the
  // legacy replica's reference.
  constexpr std::size_t kEngineKey = 0;
  constexpr std::size_t kLegacyKey = 1;

  // Counts: one untraced cell on this thread with a freshly trimmed pool.
  kern::skbuff_pool_trim();
  kern::skbuff_stats_reset();
  const RunResult cnt = run_transfer(counts);
  const kern::SkBuffStats kst = kern::skbuff_stats();
  ledger.record(kEngineKey, cnt);

  bool identity = true;
  std::vector<TracedPass> passes;
  const Clock::time_point start = Clock::now();
  do {
    TracedPass p;
    Clock::time_point t0 = Clock::now();
    const RunResult u = run_transfer(legacy);
    p.untraced_legacy_s = seconds_since(t0);
    ledger.record(sharded ? kLegacyKey : kEngineKey, u);

    perfbench::SpanRecorder rec;
    t0 = Clock::now();
    p.traced = perfbench::run_traced(legacy, rec);
    p.traced_legacy_s = seconds_since(t0);
    ledger.count_attempt();
    const bool same = p.traced.completed && p.traced.verify_ok &&
                      !p.traced.any_stream_error &&
                      p.traced.events_executed == u.events_executed &&
                      p.traced.rng_digest == u.rng_digest;
    ledger.fail_if(!same, "traced cell does not reproduce the untraced "
                          "(events_executed, rng_digest)");
    identity = identity && same;
    for (std::size_t l = 0; l < perfbench::kLayerCount; ++l) {
      p.layers[l] = rec.totals(static_cast<Layer>(l));
    }
    if (passes.empty() && !a.spans_path.empty()) {
      std::ofstream out(a.spans_path);
      rec.write_spans(out);
    }

    if (sharded) {
      t0 = Clock::now();
      p.engine_run = run_transfer(ref);
      p.engine_wall_s = seconds_since(t0);
      ledger.record(kEngineKey, p.engine_run);
    } else {
      p.engine_run = u;
      p.engine_wall_s = p.untraced_legacy_s;
    }
    passes.push_back(std::move(p));
    // Stop when one more pass, as long as the mean one, would overrun.
  } while (!a.smoke &&
           seconds_since(start) * (passes.size() + 1) / passes.size() <
               a.seconds);

  // Report the pass with the median loop time whole, so its self times
  // and rest add up to its loop time exactly.
  std::sort(passes.begin(), passes.end(),
            [](const TracedPass& x, const TracedPass& y) {
              return x.traced.loop_s < y.traced.loop_s;
            });
  const TracedPass& p = passes[passes.size() / 2];
  const auto self_s = [&](Layer l) {
    return std::chrono::duration<double>(
               p.layers[static_cast<std::size_t>(l)].self)
        .count();
  };
  const auto layer = [&](Layer l) -> const perfbench::SpanRecorder::Totals& {
    return p.layers[static_cast<std::size_t>(l)];
  };
  const double loop = p.traced.loop_s;
  double covered = 0.0;
  for (std::size_t l = 0; l < perfbench::kLayerCount; ++l) {
    covered += self_s(static_cast<Layer>(l));
  }
  const double rest = loop - covered;
  const bool spans_fit = rest >= 0.0;
  if (!spans_fit) std::cerr << "span self times exceed the loop time\n";

  // Calibration at this run's observed sizes.
  const Layer tx = Layer::kNetUplink, rx = Layer::kProtoRx;
  const double pkts = static_cast<double>(layer(tx).spans + layer(rx).spans);
  const double bytes = static_cast<double>(layer(tx).bytes + layer(rx).bytes);
  const std::size_t mean_pkt =
      static_cast<std::size_t>(std::llround(ratio(bytes, pkts)));
  const double csum_ns = perfbench::checksum_ns_per_byte(mean_pkt);
  const double hdr_ns = perfbench::header_ns();
  const double verify_ns = perfbench::verify_ns_per_byte(ref.workload.chunk);
  const double fill_ns = perfbench::fill_ns_per_byte(ref.workload.chunk);
  const double payload =
      std::max(0.0, bytes - pkts * static_cast<double>(proto::Header::kSize));
  const double wire_est_s = (pkts * hdr_ns + payload * csum_ns) * 1e-9;

  const RunResult& e = p.engine_run;
  const proto::SenderStats& s = cnt.sender;
  const proto::ReceiverStats& r = cnt.receivers_total;
  const double events = static_cast<double>(e.events_executed);
  const double epochs = static_cast<double>(e.shard_epochs);
  const double attempted = static_cast<double>(ledger.attempted());
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };

  print_provenance(a, passes.size(), cells.size());
  std::cout << "note: sim.rest_self_s is loop time no span covers "
               "(event queue, router and NIC service, protocol timers, "
               "paced sink reads); wire.* ns figures are calibrated "
               "estimates"
            << (sharded ? "; self times come from the unsharded "
                          "legacy-engine replica of the cell"
                        : "")
            << "\n";
  print_result(
      ledger.failed() == 0 && identity && spans_fit, ledger,
      {
          {"app.self_s", self_s(Layer::kApp), "s"},
          {"app.share", ratio(self_s(Layer::kApp), loop), "ratio"},
          {"app.bytes_read", n(r.bytes_delivered), "bytes"},
          {"app.verify_ns_per_byte", verify_ns, "ns/byte"},
          {"app.fill_ns_per_byte", fill_ns, "ns/byte"},
          {"wire.pkts_tx", n(layer(tx).spans), "count"},
          {"wire.pkts_rx", n(layer(rx).spans), "count"},
          {"wire.checksum_ns_per_byte", csum_ns, "ns/byte"},
          {"wire.header_ns", hdr_ns, "ns"},
          {"wire.est_s", wire_est_s, "s"},
          {"wire.est_share", ratio(wire_est_s, loop), "ratio"},
          {"wire.bad_packets", n(s.bad_packets + r.bad_packets), "count"},
          {"proto.rx_self_s", self_s(rx), "s"},
          {"proto.rx_ns_per_pkt",
           ratio(self_s(rx) * 1e9, n(layer(rx).spans)), "ns/pkt"},
          {"proto.naks_rx", n(s.naks_received), "count"},
          {"proto.updates_rx", n(s.updates_received + s.agg_updates_received),
           "count"},
          {"proto.rate_requests_rx", n(s.rate_requests_received), "count"},
          {"proto.probes_sent", n(s.probes_sent), "count"},
          {"proto.retransmissions", n(s.retransmissions), "count"},
          {"proto.release_decisions", n(s.release_decisions), "count"},
          {"proto.retx_ratio",
           ratio(n(s.retransmissions), n(s.data_packets_sent)), "ratio"},
          {"proto.dup_ratio",
           ratio(n(r.duplicate_packets), n(r.data_packets_received)),
           "ratio"},
          {"proto.rescan_work_per_release",
           ratio(n(cnt.member_min_rescan_work), n(s.release_decisions)),
           "members/release"},
          {"net.uplink_self_s", self_s(Layer::kNetUplink), "s"},
          {"net.host_rx_self_s", self_s(Layer::kNetHostRx), "s"},
          {"net.router_loss_drops", n(cnt.router_loss_drops), "count"},
          {"net.nic_tx_drops", n(cnt.sender_nic_tx_drops), "count"},
          {"kern.skb_block_allocs", n(kst.block_allocs), "count"},
          {"kern.skb_clones", n(kst.clones), "count"},
          {"kern.skb_cow_copies", n(kst.cow_copies), "count"},
          {"kern.skb_pool_hit_ratio",
           ratio(n(kst.pool_hits), n(kst.pool_hits + kst.block_allocs)),
           "ratio"},
          {"kern.skb_peak_bytes", n(kst.peak_bytes), "bytes"},
          {"sim.events", events, "count"},
          {"sim.events_per_wall_s", ratio(events, p.engine_wall_s), "1/s"},
          {"sim.ns_per_event", ratio(p.engine_wall_s * 1e9, events),
           "ns/event"},
          {"sim.compactions", n(e.sched_compactions), "count"},
          {"sim.rest_self_s", rest, "s"},
          {"sim.rest_share", ratio(rest, loop), "ratio"},
          {"shard.epochs", epochs, "count"},
          {"shard.events_per_epoch", ratio(events, epochs), "events/epoch"},
          {"shard.handoffs", n(e.shard_handoffs), "count"},
          {"shard.handoff_bytes", n(e.shard_handoff_bytes), "bytes"},
          {"shard.control_posts", n(e.shard_control_posts), "count"},
          {"shard.wall_us_per_epoch", ratio(p.engine_wall_s * 1e6, epochs),
           "us/epoch"},
          {"trace.overhead_ratio",
           ratio(p.traced_legacy_s, p.untraced_legacy_s), "ratio"},
          {"harness.rig_identity", identity ? 1.0 : 0.0, "flag"},
          {"harness.cell_fail_ratio", n(ledger.failed()) / attempted, "ratio"},
      });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    return a.trace ? run_traced_workload(a) : run_end_to_end(a);
  } catch (const std::exception& ex) {
    std::cerr << "hrmc_perfbench: " << ex.what() << "\n";
    return 2;
  }
}
