#include "kern/checksum.hpp"

#include <bit>
#include <cstring>

namespace hrmc::kern {
namespace {

/// Folds a one's-complement sum to 16 bits (end-around carries).
std::uint32_t fold16(std::uint64_t sum) {
  sum = (sum & 0xffffffffu) + (sum >> 32);
  sum = (sum & 0xffffffffu) + (sum >> 32);
  sum = (sum & 0xffff) + (sum >> 16);
  sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint32_t>(sum);
}

/// One's-complement sum of the big-endian 16-bit words of `data` (an
/// odd trailing byte is padded with zero), folded to 16 bits.
///
/// RFC 1071 §2: the sum is byte-order independent and may be taken over
/// wider words with the carries deferred. 32-bit native-order words go
/// into a 64-bit accumulator (no overflow below 2^32 words), the result
/// is folded to 16 bits and, on a little-endian host, byte-swapped back
/// to network order. The trailing pair and odd byte are added after.
std::uint32_t sum16(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  const std::size_t n = data.size();
  std::uint64_t wide = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    std::uint32_t w;
    std::memcpy(&w, p + i, sizeof w);
    wide += w;
  }
  std::uint64_t sum = fold16(wide);
  if constexpr (std::endian::native == std::endian::little) {
    sum = ((sum & 0xff) << 8) | (sum >> 8);
  }
  if (i + 2 <= n) {
    sum += static_cast<std::uint32_t>(p[i]) << 8 | p[i + 1];
    i += 2;
  }
  if (i < n) sum += static_cast<std::uint32_t>(p[i]) << 8;
  return fold16(sum);
}

}  // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  return static_cast<std::uint16_t>(~sum16(data) & 0xffff);
}

bool checksum_ok(std::span<const std::uint8_t> data) {
  return sum16(data) == 0xffff;
}

}  // namespace hrmc::kern
