// The benchmark suite (paper Section V: 4 SPEC2006 + 6 MiBench programs,
// compiled for ARM). We author equivalent kernels directly in the vr32 ISA:
// real algorithms with real control flow whose data-access behaviour
// reproduces each original's Fig. 3 profile (spatial locality / word reuse)
// and whose code shape (basic blocks of ~5-6 instructions, function calls,
// literal pools) exercises the BBR tool chain the way compiled C would.
//
//   name           models          access profile (Fig. 3)
//   basicmath      MiBench         tiny footprint, very high reuse
//   qsort          MiBench         moderate spatial, high reuse
//   dijkstra       MiBench         row scans + high-reuse dist array
//   patricia       MiBench         pointer chasing, low spatial, high reuse
//   crc32          MiBench         streaming + hot 256-entry table
//   adpcm          MiBench         streaming + hot step tables
//   mcf_r          429.mcf         scattered pointer chasing, low spatial
//   bzip2_r        401.bzip2       MTF+RLE: streaming + hot MTF table
//   hmmer_r        456.hmmer       DP rows: moderate spatial, high reuse
//   libquantum_r   462.libquantum  pure streaming: high spatial, low reuse
//
// Register convention (all benchmarks and the stdlib):
//   r1-r3 arguments / return value / scratch,
//   r4-r7 caller-saved scratch (library functions touch only r1-r7),
//   r8-r13 main-loop state (never touched by library functions),
//   r14 stack pointer, r15 link register.
// Every benchmark leaves a checksum in r1 before Halt so functional
// correctness (including after BBR transformation + relocation) is
// verifiable.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "isa/module.h"

namespace voltcache {

/// Input-size scaling. Dynamic instruction counts are roughly:
/// Tiny ~ tens of thousands (unit tests), Small ~ a few hundred thousand
/// (CI benches), Reference ~ a million+ (full experiments).
enum class WorkloadScale : std::uint8_t { Tiny, Small, Reference };

/// "tiny" / "small" / "reference".
[[nodiscard]] const char* workloadScaleName(WorkloadScale scale) noexcept;

/// Inverse of workloadScaleName; throws std::runtime_error for other names.
[[nodiscard]] WorkloadScale parseWorkloadScale(std::string_view name);

struct BenchmarkInfo {
    std::string_view name;
    std::string_view models; ///< the SPEC/MiBench program this stands in for
};

/// Data memory layout shared by all benchmarks.
namespace layout {
inline constexpr std::uint32_t kDataBase = 0x00100000;  ///< static data segments
inline constexpr std::uint32_t kHeapBase = 0x00200000;  ///< program-generated arrays
inline constexpr std::uint32_t kStackTop = 0x007FFFF0;  ///< r14 grows down from here
} // namespace layout

/// All ten benchmark names, in the paper's Fig. 3 order.
[[nodiscard]] std::span<const BenchmarkInfo> benchmarkList() noexcept;

/// Build one benchmark program. Throws std::out_of_range for unknown names.
[[nodiscard]] Module buildBenchmark(std::string_view name, WorkloadScale scale);

// Individual builders (one translation unit each).
[[nodiscard]] Module buildBasicmath(WorkloadScale scale);
[[nodiscard]] Module buildQsort(WorkloadScale scale);
[[nodiscard]] Module buildDijkstra(WorkloadScale scale);
[[nodiscard]] Module buildPatricia(WorkloadScale scale);
[[nodiscard]] Module buildCrc32(WorkloadScale scale);
[[nodiscard]] Module buildAdpcm(WorkloadScale scale);
[[nodiscard]] Module buildMcf(WorkloadScale scale);
[[nodiscard]] Module buildBzip2(WorkloadScale scale);
[[nodiscard]] Module buildHmmer(WorkloadScale scale);
[[nodiscard]] Module buildLibquantum(WorkloadScale scale);

} // namespace voltcache
