#include "common/crc32.h"

#include <array>

#if defined(__x86_64__) || defined(__i386__)
#define HDS_CRC32_X86 1
#include <immintrin.h>
#endif

namespace hds::crc32_kernels {

namespace {

constexpr std::uint32_t kPolyReflected = 0xEDB88320u;

// kTables[0] is the classic bytewise table; kTables[k][b] is the CRC of
// byte b followed by k zero bytes, so eight lookups advance eight bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() noexcept {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? kPolyReflected ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}
constexpr auto kTables = make_tables();

std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

// The kernels below advance the raw CRC register (pre- and post-inversion
// are applied once by the public entry points).
std::uint32_t bytewise_update(std::uint32_t c, const std::uint8_t* p,
                              std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    c = kTables[0][(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c;
}

std::uint32_t slice8_update(std::uint32_t c, const std::uint8_t* p,
                            std::size_t n) noexcept {
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
        kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
        kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  return bytewise_update(c, p, n);
}

#ifdef HDS_CRC32_X86
// Folding constants for the reflected IEEE polynomial (Gopal et al., "Fast
// CRC Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009):
// x^(4*128+32) mod P and x^(4*128-32) mod P fold 512 bits at a time,
// x^(128+32) / x^(128-32) fold 128 bits, x^64 mod P folds 64 -> 32, and
// P' / mu drive the final Barrett reduction. Each is bit-reflected and
// shifted left by one, as the reflected-domain multiply requires.
constexpr long long kFold512Lo = 0x154442bd4LL;
constexpr long long kFold512Hi = 0x1c6e41596LL;
constexpr long long kFold128Lo = 0x1751997d0LL;
constexpr long long kFold128Hi = 0x0ccaa009eLL;
constexpr long long kFold64 = 0x163cd6124LL;
constexpr long long kPoly = 0x1db710641LL;
constexpr long long kMu = 0x1f7011641LL;

// x * k as two carry-less 64x64 products: x.lo * k.lo ^ x.hi * k.hi, which
// moves x 128 (or 512) bits further along the message, then adds `next`.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(
    __m128i x, __m128i k, __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

__attribute__((target("pclmul,sse4.1"))) __m128i load128(
    const std::uint8_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Requires n >= 64 and n % 16 == 0.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t pclmul_update(
    std::uint32_t c, const std::uint8_t* p, std::size_t n) noexcept {
  // Four independent 128-bit lanes hide the multiply latency.
  __m128i x0 = _mm_xor_si128(load128(p),
                             _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load128(p + 16);
  __m128i x2 = load128(p + 32);
  __m128i x3 = load128(p + 48);
  p += 64;
  n -= 64;
  const __m128i k512 = _mm_set_epi64x(kFold512Hi, kFold512Lo);
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k512, load128(p));
    x1 = fold(x1, k512, load128(p + 16));
    x2 = fold(x2, k512, load128(p + 32));
    x3 = fold(x3, k512, load128(p + 48));
  }

  // Four lanes into one, then the remaining 16-byte blocks.
  const __m128i k128 = _mm_set_epi64x(kFold128Hi, kFold128Lo);
  __m128i x = fold(x0, k128, x1);
  x = fold(x, k128, x2);
  x = fold(x, k128, x3);
  for (; n >= 16; p += 16, n -= 16) x = fold(x, k128, load128(p));

  // 128 -> 64 bits, then 64 -> 32 bits.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k128, 0x10));
  x = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x, low32),
                           _mm_set_epi64x(0, kFold64), 0x00),
      _mm_srli_si128(x, 4));

  // Barrett reduction to the 32-bit remainder.
  const __m128i poly_mu = _mm_set_epi64x(kMu, kPoly);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}
#endif  // HDS_CRC32_X86

}  // namespace

std::uint32_t bytewise(std::span<const std::uint8_t> data,
                       std::uint32_t seed) noexcept {
  return ~bytewise_update(~seed, data.data(), data.size());
}

std::uint32_t slice8(std::span<const std::uint8_t> data,
                     std::uint32_t seed) noexcept {
  return ~slice8_update(~seed, data.data(), data.size());
}

std::uint32_t pclmul(std::span<const std::uint8_t> data,
                     std::uint32_t seed) noexcept {
  std::uint32_t c = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#ifdef HDS_CRC32_X86
  if (n >= 64) {
    const std::size_t bulk = n & ~std::size_t{15};
    c = pclmul_update(c, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  return ~slice8_update(c, p, n);
}

bool pclmul_supported() noexcept {
#ifdef HDS_CRC32_X86
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

}  // namespace hds::crc32_kernels

namespace hds {

std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed) noexcept {
  static const auto kernel = crc32_kernels::pclmul_supported()
                                 ? &crc32_kernels::pclmul
                                 : &crc32_kernels::slice8;
  return kernel(data, seed);
}

}  // namespace hds
