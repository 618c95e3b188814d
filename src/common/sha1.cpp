#include "common/sha1.h"

#include <algorithm>
#include <cstring>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#define HDS_SHA1_X86 1
#include <immintrin.h>
#endif

namespace hds {

namespace sha1_kernels {

namespace {
constexpr std::uint32_t rotl32(std::uint32_t x, int k) noexcept {
  return (x << k) | (x >> (32 - k));
}

#ifdef HDS_SHA1_X86
// One group of four rounds (G = 0..19) of the SHA-NI schedule. The message
// words live in four registers used round-robin: group G consumes m[G % 4]
// and, in the same step, advances the schedule of the three groups after
// it (msg1 three groups ahead, the xor two ahead, msg2 one ahead). e[G % 2]
// carries E into this group's rounds; the other slot saves ABCD for the
// next group's E.
template <int G>
__attribute__((target("sha,sse4.1"), always_inline)) inline void rounds4(
    __m128i& abcd, __m128i (&e)[2], __m128i (&m)[4]) noexcept {
  __m128i& cur = e[G % 2];
  const __m128i w = m[G % 4];
  if constexpr (G == 0) {
    cur = _mm_add_epi32(cur, w);
  } else {
    cur = _mm_sha1nexte_epu32(cur, w);
  }
  e[(G + 1) % 2] = abcd;
  if constexpr (G >= 3 && G <= 18) {
    m[(G + 1) % 4] = _mm_sha1msg2_epu32(m[(G + 1) % 4], w);
  }
  abcd = _mm_sha1rnds4_epu32(abcd, cur, G / 5);
  if constexpr (G >= 1 && G <= 16) {
    m[(G + 3) % 4] = _mm_sha1msg1_epu32(m[(G + 3) % 4], w);
  }
  if constexpr (G >= 2 && G <= 17) {
    m[(G + 2) % 4] = _mm_xor_si128(m[(G + 2) % 4], w);
  }
}

template <int... G>
__attribute__((target("sha,sse4.1"), always_inline)) inline void all_rounds(
    __m128i& abcd, __m128i (&e)[2], __m128i (&m)[4],
    std::integer_sequence<int, G...>) noexcept {
  (rounds4<G>(abcd, e, m), ...);
}
#endif  // HDS_SHA1_X86
}  // namespace

void scalar(std::uint32_t state[5], const std::uint8_t* data,
            std::size_t blocks) noexcept {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[80];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t{data[4 * i]} << 24) |
             (std::uint32_t{data[4 * i + 1]} << 16) |
             (std::uint32_t{data[4 * i + 2]} << 8) |
             std::uint32_t{data[4 * i + 3]};
    }
    for (int i = 16; i < 80; ++i) {
      w[i] = rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                  e = state[4];
    for (int i = 0; i < 80; ++i) {
      std::uint32_t f, k;
      if (i < 20) {
        f = (b & c) | (~b & d);
        k = 0x5A827999u;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1u;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDCu;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6u;
      }
      const std::uint32_t tmp = rotl32(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = rotl32(b, 30);
      b = a;
      a = tmp;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
  }
}

#ifdef HDS_SHA1_X86
__attribute__((target("sha,sse4.1"))) void shani(std::uint32_t state[5],
                                                 const std::uint8_t* data,
                                                 std::size_t blocks) noexcept {
  // SHA-1 words are big-endian; reverse the bytes of each 16-byte load so
  // lane 3 holds the first word, the order the SHA instructions expect.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abcd_saved = abcd;
    const __m128i e_saved = e0;
    __m128i m[4];
    for (int i = 0; i < 4; ++i) {
      m[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          byte_swap);
    }
    __m128i e[2] = {e0, e0};
    all_rounds(abcd, e, m, std::make_integer_sequence<int, 20>{});
    // Group 19 left the pre-round ABCD in e[0]; its rotated A is the E
    // the block produced.
    e0 = _mm_sha1nexte_epu32(e[0], e_saved);
    abcd = _mm_add_epi32(abcd, abcd_saved);
  }

  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

bool shani_supported() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}
#else
void shani(std::uint32_t state[5], const std::uint8_t* data,
           std::size_t blocks) noexcept {
  scalar(state, data, blocks);
}

bool shani_supported() noexcept { return false; }
#endif  // HDS_SHA1_X86

BlockFn best() noexcept {
  static const BlockFn kernel = shani_supported() ? &shani : &scalar;
  return kernel;
}

}  // namespace sha1_kernels

void Sha1::reset() noexcept {
  h_[0] = 0x67452301u;
  h_[1] = 0xEFCDAB89u;
  h_[2] = 0x98BADCFEu;
  h_[3] = 0x10325476u;
  h_[4] = 0xC3D2E1F0u;
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha1::update(std::span<const std::uint8_t> data) noexcept {
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();

  if (buffer_len_ > 0) {
    const std::size_t take = std::min(n, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ == sizeof(buffer_)) {
      compress_(h_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (n >= 64) {
    compress_(h_, p, n / 64);
    p += n & ~std::size_t{63};
    n &= 63;
  }
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffer_len_ = n;
  }
}

Fingerprint Sha1::finish() noexcept {
  // Padding: 0x80, zeros, then the 64-bit big-endian bit length, which
  // spills into a second block when fewer than 9 bytes are left.
  std::uint8_t tail[128]{};
  std::memcpy(tail, buffer_, buffer_len_);
  tail[buffer_len_] = 0x80;
  const std::size_t blocks = buffer_len_ < 56 ? 1 : 2;
  const std::uint64_t bit_len = total_len_ * 8;
  for (int i = 0; i < 8; ++i) {
    tail[64 * blocks - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress_(h_, tail, blocks);

  Fingerprint fp;
  for (int i = 0; i < 5; ++i) {
    fp.bytes[4 * i] = static_cast<std::uint8_t>(h_[i] >> 24);
    fp.bytes[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    fp.bytes[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    fp.bytes[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return fp;
}

}  // namespace hds
