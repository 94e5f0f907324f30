// Calibration kernels: host cost of the per-byte and per-packet
// primitives, timed in the benchmark's own process at the sizes a run
// actually used. The results are estimates (a hot loop over one buffer,
// not the cache state of a live run) and are labelled so in the output.
#pragma once

#include <cstddef>

namespace perfbench {

/// kern::internet_checksum over a `bytes`-long buffer, ns per byte.
double checksum_ns_per_byte(std::size_t bytes);

/// One proto::write_header or read_header on an empty payload (the
/// per-packet codec cost, including its 20-byte checksum), ns.
double header_ns();

/// app::pattern_verify / pattern_fill over a `chunk`-long buffer, ns per
/// byte.
double verify_ns_per_byte(std::size_t chunk);
double fill_ns_per_byte(std::size_t chunk);

}  // namespace perfbench
