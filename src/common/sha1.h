// SHA-1, implemented from scratch (FIPS 180-4).
//
// The paper (and Destor, DDFS, Sparse Indexing, SiLo) fingerprints chunks
// with SHA-1. Cryptographic strength is irrelevant here — what matters is a
// uniformly distributed 160-bit identifier whose collision probability is far
// below hardware error rates — so a clean, dependency-free implementation is
// the right tool. Every ingested byte is hashed, so the block compression
// dispatches once per process to the SHA-NI kernel where the CPU has it
// (DESIGN.md §17).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/fingerprint.h"

namespace hds {

// The block compression functions, callable explicitly so parity tests and
// micro benchmarks can run each one. Each folds `blocks` consecutive 64-byte
// blocks at `data` into the five-word chaining state.
namespace sha1_kernels {

using BlockFn = void (*)(std::uint32_t state[5], const std::uint8_t* data,
                         std::size_t blocks) noexcept;

// The reference: the FIPS 180-4 round function in portable C++.
void scalar(std::uint32_t state[5], const std::uint8_t* data,
            std::size_t blocks) noexcept;
// The x86 SHA extensions. Requires shani_supported().
void shani(std::uint32_t state[5], const std::uint8_t* data,
           std::size_t blocks) noexcept;
// True when the CPU executes shani(): x86 with SHA and SSE4.1.
[[nodiscard]] bool shani_supported() noexcept;
// shani where supported, scalar otherwise; decided on first call.
[[nodiscard]] BlockFn best() noexcept;

}  // namespace sha1_kernels

class Sha1 {
 public:
  Sha1() noexcept : Sha1(sha1_kernels::best()) {}
  // Hashes with one specific kernel (parity tests, micro benchmarks).
  explicit Sha1(sha1_kernels::BlockFn compress) noexcept
      : compress_(compress) {
    reset();
  }

  void reset() noexcept;
  void update(std::span<const std::uint8_t> data) noexcept;
  void update(const void* data, std::size_t len) noexcept {
    update(std::span(static_cast<const std::uint8_t*>(data), len));
  }

  // Finalizes and returns the digest. The object must be reset() before
  // reuse; finalization consumes the internal state.
  [[nodiscard]] Fingerprint finish() noexcept;

  // One-shot convenience.
  [[nodiscard]] static Fingerprint digest(
      std::span<const std::uint8_t> data) noexcept {
    Sha1 h;
    h.update(data);
    return h.finish();
  }
  [[nodiscard]] static Fingerprint digest(const void* data,
                                          std::size_t len) noexcept {
    return digest(std::span(static_cast<const std::uint8_t*>(data), len));
  }

 private:
  sha1_kernels::BlockFn compress_;
  std::uint32_t h_[5]{};
  std::uint64_t total_len_ = 0;
  std::uint8_t buffer_[64]{};
  std::size_t buffer_len_ = 0;
};

}  // namespace hds
