// Console table / CSV rendering used by the benchmark harness to print the
// paper's tables and figure series in a diff-friendly layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace voltcache {

/// Column-aligned text table. Rows are strings; numeric helpers format with a
/// fixed precision so benchmark output is stable across runs.
class TextTable {
public:
    explicit TextTable(std::vector<std::string> header);

    void addRow(std::vector<std::string> cells);

    /// Convenience: formats doubles at the given precision.
    void addNumericRow(const std::string& label, const std::vector<double>& values,
                       int precision = 3);

    [[nodiscard]] std::size_t rowCount() const noexcept { return rows_.size(); }

    /// Render with box-drawing-free ASCII so output survives any terminal.
    [[nodiscard]] std::string render() const;

    /// Render as CSV (RFC-4180 quoting for cells containing commas/quotes).
    [[nodiscard]] std::string renderCsv() const;

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/// Format a double with `precision` fractional digits.
[[nodiscard]] std::string formatDouble(double value, int precision = 3);

/// Format as a percentage ("12.3%").
[[nodiscard]] std::string formatPercent(double fraction, int precision = 1);

/// Format in scientific notation ("1.0e-02").
[[nodiscard]] std::string formatSci(double value, int precision = 1);

/// Split "a,b,,c" into {"a", "b", "c"}: no quoting, empty fields dropped.
[[nodiscard]] std::vector<std::string> splitCsv(std::string_view text);

/// The whole of `text` as a decimal integer no larger than `max`; nullopt for
/// anything else ("4x", "1e3", "-1", "", a value past `max`), so a mistyped
/// input never reads as its prefix.
[[nodiscard]] std::optional<std::uint64_t> parseUnsigned(std::string_view text,
                                                         std::uint64_t max = UINT64_MAX);

/// The whole of `text` as a finite number; nullopt for anything else ("400x",
/// "", "inf", "nan").
[[nodiscard]] std::optional<double> parseReal(std::string_view text);

} // namespace voltcache
