// SHA-256 compression functions behind Sha256 (common/hash.h).
//
// Private to common/hash.cpp and its tests: Sha256 picks one of these once
// per process; the differential test calls both directly, so the portable
// reference is checked on every host and the hardware path on every host
// that has it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace voltcache::detail {

/// Fold `blockCount` consecutive 64-byte message blocks into the eight-word
/// chaining `state` (FIPS 180-4 section 6.2.2, steps 1-4 per block).
using Sha256CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                                  std::size_t blockCount) noexcept;

/// The FIPS 180-4 rounds in portable C++: the reference, and the only path
/// on CPUs without SHA extensions.
void sha256CompressPortable(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t blockCount) noexcept;

/// The x86-64 SHA-NI compression function, or nullptr when this CPU (per
/// CPUID) or this build target has no SHA extensions.
[[nodiscard]] Sha256CompressFn sha256CompressShaNi() noexcept;

} // namespace voltcache::detail
