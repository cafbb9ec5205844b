#include "common/table.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/contracts.h"

namespace voltcache {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {
    VC_EXPECTS(!header_.empty());
}

void TextTable::addRow(std::vector<std::string> cells) {
    VC_EXPECTS(cells.size() == header_.size());
    rows_.push_back(std::move(cells));
}

void TextTable::addNumericRow(const std::string& label, const std::vector<double>& values,
                              int precision) {
    std::vector<std::string> cells;
    cells.reserve(values.size() + 1);
    cells.push_back(label);
    for (double v : values) cells.push_back(formatDouble(v, precision));
    addRow(std::move(cells));
}

std::string TextTable::render() const {
    std::vector<std::size_t> widths(header_.size(), 0);
    for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }
    auto renderRow = [&](const std::vector<std::string>& row) {
        std::string line = "|";
        for (std::size_t c = 0; c < row.size(); ++c) {
            line += ' ';
            line += row[c];
            line.append(widths[c] - row[c].size(), ' ');
            line += " |";
        }
        line += '\n';
        return line;
    };
    std::string sep = "+";
    for (std::size_t w : widths) {
        sep.append(w + 2, '-');
        sep += '+';
    }
    sep += '\n';

    std::string out = sep + renderRow(header_) + sep;
    for (const auto& row : rows_) out += renderRow(row);
    out += sep;
    return out;
}

std::string TextTable::renderCsv() const {
    auto quote = [](const std::string& cell) {
        if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
        std::string quoted = "\"";
        for (char ch : cell) {
            if (ch == '"') quoted += '"';
            quoted += ch;
        }
        quoted += '"';
        return quoted;
    };
    std::string out;
    auto appendRow = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c != 0) out += ',';
            out += quote(row[c]);
        }
        out += '\n';
    };
    appendRow(header_);
    for (const auto& row : rows_) appendRow(row);
    return out;
}

std::string formatDouble(double value, int precision) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", precision, value);
    return buf;
}

std::string formatPercent(double fraction, int precision) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f%%", precision, fraction * 100.0);
    return buf;
}

std::string formatSci(double value, int precision) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*e", precision, value);
    return buf;
}

std::vector<std::string> splitCsv(std::string_view text) {
    std::vector<std::string> parts;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::size_t end = comma == std::string_view::npos ? text.size() : comma;
        if (end > pos) parts.emplace_back(text.substr(pos, end - pos));
        pos = end + 1;
    }
    return parts;
}

std::optional<std::uint64_t> parseUnsigned(std::string_view text, std::uint64_t max) {
    std::uint64_t value = 0;
    const char* end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc{} || stop != end || value > max) return std::nullopt;
    return value;
}

std::optional<double> parseReal(std::string_view text) {
    double value = 0.0;
    const char* end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc{} || stop != end || !std::isfinite(value)) return std::nullopt;
    return value;
}

} // namespace voltcache
