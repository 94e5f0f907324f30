#include "calibrate.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "app/pattern.hpp"
#include "hrmc/wire.hpp"
#include "kern/checksum.hpp"
#include "kern/skbuff.hpp"

namespace perfbench {

using namespace hrmc;

namespace {

using Clock = std::chrono::steady_clock;

/// Every kernel's result lands here, so the compiler cannot drop the
/// timed work.
volatile std::uint64_t g_sink = 0;
/// Rewritten into the verify buffer before each call, so the compiler
/// cannot hoist the (otherwise loop-invariant) verify out of the loop.
volatile std::uint8_t g_first_byte = app::pattern_byte(0);

/// Median over five repetitions of the seconds per call of `op`, each
/// repetition running batches of calls until 20 ms have passed.
template <typename Op>
double seconds_per_call(Op op) {
  constexpr auto kRepDuration = std::chrono::milliseconds(20);
  constexpr int kBatch = 64;
  std::array<double, 5> reps{};
  for (double& r : reps) {
    std::uint64_t calls = 0;
    std::uint64_t acc = 0;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point t1;
    do {
      for (int k = 0; k < kBatch; ++k) acc += op(calls + k);
      calls += kBatch;
      t1 = Clock::now();
    } while (t1 - t0 < kRepDuration);
    g_sink = g_sink + acc;
    r = std::chrono::duration<double>(t1 - t0).count() /
        static_cast<double>(calls);
  }
  std::sort(reps.begin(), reps.end());
  return reps[reps.size() / 2];
}

}  // namespace

double checksum_ns_per_byte(std::size_t bytes) {
  bytes = std::max<std::size_t>(bytes, 2);
  std::vector<std::uint8_t> buf(bytes);
  app::pattern_fill(buf, 0);
  const double s = seconds_per_call([&](std::uint64_t i) {
    buf[0] = static_cast<std::uint8_t>(i);
    return kern::internet_checksum(buf);
  });
  return s * 1e9 / static_cast<double>(bytes);
}

double header_ns() {
  kern::SkBuffPtr skb = kern::SkBuff::alloc(0);
  proto::Header h;
  h.sport = 7500;
  h.dport = 7500;
  h.type = proto::PacketType::kUpdate;
  const double s = seconds_per_call([&](std::uint64_t i) {
    h.seq = static_cast<kern::Seq>(i);
    proto::write_header(*skb, h);
    const auto back = proto::read_header(*skb);
    return back ? static_cast<std::uint64_t>(back->seq) : 0;
  });
  return s * 1e9 / 2.0;
}

double verify_ns_per_byte(std::size_t chunk) {
  std::vector<std::uint8_t> buf(std::max<std::size_t>(chunk, 1));
  app::pattern_fill(buf, 0);
  const double s = seconds_per_call([&](std::uint64_t) {
    buf[0] = g_first_byte;
    return app::pattern_verify(buf, 0);
  });
  return s * 1e9 / static_cast<double>(buf.size());
}

double fill_ns_per_byte(std::size_t chunk) {
  std::vector<std::uint8_t> buf(std::max<std::size_t>(chunk, 1));
  const double s = seconds_per_call([&](std::uint64_t i) {
    app::pattern_fill(buf, i);
    return buf[i % buf.size()];
  });
  return s * 1e9 / static_cast<double>(buf.size());
}

}  // namespace perfbench
