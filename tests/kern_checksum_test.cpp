#include "kern/checksum.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "kern/byteorder.hpp"

namespace hrmc::kern {
namespace {

TEST(Checksum, Rfc1071Example) {
  // RFC 1071 worked example: 00 01 f2 03 f4 f5 f6 f7 sums to ddf2,
  // so the stored checksum is ~0xddf2 = 0x220d.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, ZeroBlockChecksumsToAllOnes) {
  const std::uint8_t zeros[10] = {};
  EXPECT_EQ(internet_checksum(zeros), 0xffff);
}

TEST(Checksum, StoredChecksumVerifies) {
  std::vector<std::uint8_t> pkt = {0xde, 0xad, 0xbe, 0xef,
                                   0x00, 0x00,  // checksum field
                                   0x12, 0x34};
  const std::uint16_t c = internet_checksum(pkt);
  put_be16(pkt.data() + 4, c);
  EXPECT_TRUE(checksum_ok(pkt));
}

TEST(Checksum, CorruptionDetected) {
  std::vector<std::uint8_t> pkt = {0x01, 0x02, 0x03, 0x04, 0x00, 0x00};
  put_be16(pkt.data() + 4, internet_checksum(pkt));
  ASSERT_TRUE(checksum_ok(pkt));
  pkt[1] ^= 0x40;
  EXPECT_FALSE(checksum_ok(pkt));
}

TEST(Checksum, OddLengthHandled) {
  std::vector<std::uint8_t> pkt = {0xaa, 0xbb, 0x00, 0x00, 0xcc};
  put_be16(pkt.data() + 2, internet_checksum(pkt));
  EXPECT_TRUE(checksum_ok(pkt));
  pkt[4] ^= 0x01;
  EXPECT_FALSE(checksum_ok(pkt));
}

TEST(Checksum, EmptyBlock) {
  EXPECT_EQ(internet_checksum({}), 0xffff);
  EXPECT_FALSE(checksum_ok({}));  // nothing sums to 0xffff
}

/// Byte-pair reference: big-endian 16-bit words summed into 64 bits
/// (wide enough for any buffer in these tests), folded, complemented.
std::uint16_t reference_checksum(std::span<const std::uint8_t> d) {
  std::uint64_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < d.size(); i += 2) {
    sum += static_cast<std::uint64_t>(d[i]) << 8 | d[i + 1];
  }
  if (i < d.size()) sum += static_cast<std::uint64_t>(d[i]) << 8;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

/// Past 131,070 bytes of 0xff a 32-bit sum of 16-bit words wraps; the
/// correct one's-complement sum is 0xffff, so the checksum is 0.
TEST(Checksum, AllOnesBeyond32BitSum) {
  for (const std::size_t len : {140000u, 262144u}) {
    SCOPED_TRACE(len);
    const std::vector<std::uint8_t> ones(len, 0xff);
    EXPECT_EQ(internet_checksum(ones), 0x0000);
    EXPECT_TRUE(checksum_ok(ones));
  }
}

/// The wide-word sum against the byte-pair reference: every length up
/// to 3000 bytes plus a few ~290 KB buffers, at every start offset mod
/// 16 (so the 32-bit loads run unaligned and the byte-pair / odd-byte
/// tails all occur), over random bytes and over all-0xff runs.
TEST(Checksum, MatchesBytePairReference) {
  std::mt19937_64 rng(1071);
  constexpr std::size_t kMaxOffset = 16;
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 3000; ++n) lengths.push_back(n);
  for (const std::size_t n : {289999u, 290000u, 290001u, 290003u}) {
    lengths.push_back(n);
  }
  std::vector<std::uint8_t> random(290003 + kMaxOffset);
  for (auto& b : random) b = static_cast<std::uint8_t>(rng());
  std::vector<std::uint8_t> ones(random.size(), 0xff);

  for (const std::vector<std::uint8_t>* buf : {&random, &ones}) {
    for (const std::size_t n : lengths) {
      for (std::size_t off = 0; off < kMaxOffset; ++off) {
        const std::span<const std::uint8_t> d(buf->data() + off, n);
        const std::uint16_t want = reference_checksum(d);
        const std::uint16_t have = internet_checksum(d);
        if (have != want) {
          ADD_FAILURE() << "len " << n << " offset " << off << ": got "
                        << have << ", reference " << want;
          return;
        }
        ASSERT_EQ(checksum_ok(d), want == 0) << "len " << n << " offset "
                                             << off;
      }
    }
  }
}

TEST(ByteOrder, RoundTrips) {
  std::uint8_t buf[4];
  put_be16(buf, 0xbeef);
  EXPECT_EQ(get_be16(buf), 0xbeef);
  EXPECT_EQ(buf[0], 0xbe);  // big end first
  put_be32(buf, 0x01020304u);
  EXPECT_EQ(get_be32(buf), 0x01020304u);
  EXPECT_EQ(buf[0], 0x01);
}

}  // namespace
}  // namespace hrmc::kern
