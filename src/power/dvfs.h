// DVFS operating points (paper Table II).
//
// DVFS applies to the core logic and both L1 caches. The L2 sits on a
// separate fixed voltage rail but is frequency-scaled with the core, so L2
// latency in core cycles is constant across operating points while L2
// energy per access is not voltage-scaled.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "faults/failure_model.h"

namespace voltcache {

/// One row of Table II.
struct OperatingPoint {
    Voltage voltage;
    Frequency frequency;
    double pFailBit = 0.0; ///< per-bit 6T failure probability at this point
};

class DvfsTable {
public:
    /// All six operating points of Table II, highest voltage first.
    [[nodiscard]] static std::span<const OperatingPoint> paperPoints() noexcept;

    /// The five low-voltage points the evaluation sweeps (560..400mV).
    [[nodiscard]] static std::span<const OperatingPoint> lowVoltagePoints() noexcept;

    /// The conventional cache's operating point (Vccmin = 760mV): the
    /// normalization baseline for Fig. 12.
    [[nodiscard]] static const OperatingPoint& vccminBaseline() noexcept;

    /// Operating point for a voltage (matches a Table II row within 0.5mV).
    /// Throws std::out_of_range for unsupported voltages.
    [[nodiscard]] static const OperatingPoint& at(Voltage v);

    /// Operating points for a comma-separated millivolt list ("560,400").
    /// Throws std::runtime_error for a value that does not parse whole as a
    /// number ("400x"), std::out_of_range for one that is not a Table II point.
    [[nodiscard]] static std::vector<OperatingPoint> parseMillivoltList(std::string_view csv);
};

} // namespace voltcache
