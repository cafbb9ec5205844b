#include "power/dvfs.h"

#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/table.h"

namespace voltcache {

namespace {

using voltcache::literals::operator""_mV;

// Table II verbatim. P_fail values are the per-bit probabilities the
// FailureModel reproduces at these voltages: 0 (effectively), 1e-4, 1e-3.5,
// 1e-3, 1e-2.5, 1e-2.
const std::array<OperatingPoint, 6> kPoints = {{
    {760_mV, Frequency::fromMegahertz(1607), 3.8160e-9},
    {560_mV, Frequency::fromMegahertz(1089), 1e-4},
    {520_mV, Frequency::fromMegahertz(958), std::pow(10.0, -3.5)},
    {480_mV, Frequency::fromMegahertz(818), 1e-3},
    {440_mV, Frequency::fromMegahertz(638), std::pow(10.0, -2.5)},
    {400_mV, Frequency::fromMegahertz(475), 1e-2},
}};

} // namespace

std::span<const OperatingPoint> DvfsTable::paperPoints() noexcept { return kPoints; }

std::span<const OperatingPoint> DvfsTable::lowVoltagePoints() noexcept {
    return std::span<const OperatingPoint>(kPoints).subspan(1);
}

const OperatingPoint& DvfsTable::vccminBaseline() noexcept { return kPoints.front(); }

const OperatingPoint& DvfsTable::at(Voltage v) {
    for (const auto& point : kPoints) {
        if (std::abs(point.voltage.millivolts() - v.millivolts()) < 0.5) return point;
    }
    throw std::out_of_range("DvfsTable::at: voltage is not a Table II operating point");
}

std::vector<OperatingPoint> DvfsTable::parseMillivoltList(std::string_view csv) {
    std::vector<OperatingPoint> points;
    for (const std::string& mv : splitCsv(csv)) {
        const std::optional<double> millivolts = parseReal(mv);
        if (!millivolts) throw std::runtime_error("not a millivolt value: '" + mv + "'");
        points.push_back(at(Voltage::fromMillivolts(*millivolts)));
    }
    return points;
}

} // namespace voltcache
