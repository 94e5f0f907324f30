// Outside-in tracing of one legacy-engine cell.
//
// run_traced() assembles the same cell harness::run_transfer builds on
// the single-Scheduler path, from the same public constructors and in
// the same order, and installs timing proxies at public layer
// boundaries:
//
//   proto   net::Transport::rx, via a proxy re-registered on each host
//           after the protocol endpoint registered itself;
//   app     HrmcReceiver::on_readable / on_complete and
//           HrmcSender::on_writable, by wrapping the apps' callbacks;
//   net     Nic::attach_uplink (NIC -> router) and Nic::attach_host
//           (NIC -> host stack), by re-attaching proxies.
//
// Nothing under src/ changes. A span's self time excludes the spans
// nested inside it, so the layers' self times plus `rest_s` (loop time
// no span covers: event-queue work, router and NIC service, protocol
// timers, paced sink reads re-entered from SinkApp's own events) add up
// to the loop time exactly.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

#include "harness/scenario.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kProtoRx,    ///< Transport::rx — protocol receive processing
  kApp,        ///< SinkApp / SourceApp callbacks
  kNetUplink,  ///< NIC -> router delivery (router queueing, fan-out)
  kNetHostRx,  ///< NIC -> host delivery (host CPU model)
};
inline constexpr std::size_t kLayerCount = 4;

const char* layer_name(Layer l);

/// Per-layer span accumulator. Every span feeds the totals; the first
/// kKeptSpans spans of a cell are also kept whole in memory and written
/// out by write_spans() after the cell ends.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::size_t kKeptSpans = 1 << 16;

  struct Totals {
    std::uint64_t spans = 0;
    std::uint64_t bytes = 0;  ///< packet bytes handed across (0 for app)
    Clock::duration self{};
  };

  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root (ids start at 1)
    Layer layer = Layer::kApp;
    std::int64_t start_ns = 0;  ///< relative to the recorder's epoch
    std::int64_t end_ns = 0;
  };

  class Scope {
   public:
    Scope(SpanRecorder& rec, Layer layer, std::size_t bytes) : rec_(rec) {
      rec_.open(layer, bytes);
    }
    ~Scope() { rec_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
  };

  SpanRecorder() : epoch_(Clock::now()) { kept_.reserve(kKeptSpans); }

  [[nodiscard]] const Totals& totals(Layer l) const {
    return totals_[static_cast<std::size_t>(l)];
  }

  /// One CSV line per kept span: id,parent,layer,start_ns,end_ns.
  void write_spans(std::ostream& out) const;

 private:
  struct Open {
    Layer layer;
    std::uint32_t id;
    std::size_t kept_index;  ///< into kept_, or SIZE_MAX
    Clock::time_point start;
    Clock::duration child{};
  };

  void open(Layer layer, std::size_t bytes);
  void close();

  Clock::time_point epoch_;
  std::uint32_t next_id_ = 1;
  std::vector<Open> stack_;
  std::array<Totals, kLayerCount> totals_{};
  std::vector<Span> kept_;
};

struct TracedCell {
  bool completed = false;
  bool verify_ok = true;
  bool any_stream_error = false;
  std::uint64_t events_executed = 0;
  std::uint64_t rng_digest = 0;
  double loop_s = 0.0;  ///< host seconds inside Scheduler::run_while
};

/// Runs `sc` on the legacy engine with the proxies above feeding `rec`.
/// Reproduces run_transfer(sc)'s events_executed and rng_digest exactly
/// for the scenario features it assembles; throws std::invalid_argument
/// for the others (faults, churn, hierarchy, memory budget, tracing,
/// sharding).
TracedCell run_traced(const hrmc::harness::Scenario& sc, SpanRecorder& rec);

}  // namespace perfbench
