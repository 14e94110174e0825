#include "util/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace cfir::util {

namespace {

constexpr uint32_t kPoly = 0xEDB88320u;

// Slicing-by-8 (Intel's technique): table k maps a byte to its CRC
// contribution k bytes further down the stream, so eight input bytes fold
// into the running CRC with eight independent lookups per step instead of
// eight dependent ones. Table 0 is the classic byte-at-a-time table, which
// handles the unaligned head and the tail; the values are bit-for-bit the
// bytewise CRC's.
constexpr std::array<std::array<uint32_t, 256>, 8> make_tables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? (c >> 1) ^ kPoly : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kTables = make_tables();

}  // namespace

uint32_t crc32(const void* data, size_t n, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    if constexpr (std::endian::native == std::endian::big) {
      lo = __builtin_bswap32(lo);
      hi = __builtin_bswap32(hi);
    }
    lo ^= c;
    c = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
        kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
        kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return ~c;
}

}  // namespace cfir::util
