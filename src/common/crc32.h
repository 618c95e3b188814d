// CRC-32 (IEEE 802.3 polynomial, reflected, as zlib computes it).
//
// Used as an integrity checksum on serialized containers and recipes —
// corruption of on-disk structures must be detected before chunks are handed
// back to a restore. Every stored, committed and restored byte passes
// through it, so crc32() dispatches once per process to the fastest kernel
// the CPU runs (DESIGN.md §17).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace hds {

// PCLMULQDQ folding where the CPU has PCLMUL and SSE4.1, slice-by-8
// otherwise. Bit-identical to crc32_kernels::bytewise.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data,
                                  std::uint32_t seed = 0) noexcept;

inline std::uint32_t crc32(const void* data, std::size_t len,
                           std::uint32_t seed = 0) noexcept {
  return crc32(std::span(static_cast<const std::uint8_t*>(data), len), seed);
}

// The individual kernels, callable explicitly so parity tests and micro
// benchmarks can run each one. All compute crc32(data, seed).
namespace crc32_kernels {

// The reference: one table lookup per byte.
[[nodiscard]] std::uint32_t bytewise(std::span<const std::uint8_t> data,
                                     std::uint32_t seed) noexcept;
// Eight table lookups per 8-byte word; the fallback without PCLMUL.
[[nodiscard]] std::uint32_t slice8(std::span<const std::uint8_t> data,
                                   std::uint32_t seed) noexcept;
// Carry-less-multiply folding over the 16-byte multiple of inputs of at
// least 64 bytes, slice-by-8 for the rest. Requires pclmul_supported().
[[nodiscard]] std::uint32_t pclmul(std::span<const std::uint8_t> data,
                                   std::uint32_t seed) noexcept;
// True when the CPU executes pclmul(): x86 with PCLMULQDQ and SSE4.1.
[[nodiscard]] bool pclmul_supported() noexcept;

}  // namespace crc32_kernels

}  // namespace hds
