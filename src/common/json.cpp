#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/contracts.h"

namespace voltcache {

namespace {

/// Append `raw` to `out` escaped for a JSON string literal (quotes not
/// included): quote, backslash and every control character are escaped;
/// runs of other characters are appended as they are.
void appendEscaped(std::string& out, std::string_view raw) {
    std::size_t runStart = 0;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        const char c = raw[i];
        if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) continue;
        out.append(raw.data() + runStart, i - runStart);
        runStart = i + 1;
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default: {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        }
        }
    }
    out.append(raw.data() + runStart, raw.size() - runStart);
}

template <typename Integer>
void appendInteger(std::string& out, Integer v) {
    char buf[24];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
    VC_ENSURES(ec == std::errc{});
    out.append(buf, ptr);
}

} // namespace

JsonWriter::JsonWriter() { stack_.push_back(Frame{}); }

void JsonWriter::beforeValue() {
    Frame& top = stack_.back();
    switch (top.scope) {
    case Scope::Root:
        VC_EXPECTS(top.items == 0); // a document holds exactly one value
        break;
    case Scope::Object:
        VC_EXPECTS(top.keyPending); // object values need a key() first
        break;
    case Scope::Array:
        if (top.items > 0) out_ += ',';
        break;
    }
}

void JsonWriter::afterValue() {
    Frame& top = stack_.back();
    ++top.items;
    top.keyPending = false;
}

void JsonWriter::beginObject() {
    beforeValue();
    out_ += '{';
    stack_.push_back(Frame{Scope::Object, 0, false});
}

void JsonWriter::endObject() {
    VC_EXPECTS(stack_.back().scope == Scope::Object && !stack_.back().keyPending);
    stack_.pop_back();
    out_ += '}';
    afterValue();
}

void JsonWriter::beginArray() {
    beforeValue();
    out_ += '[';
    stack_.push_back(Frame{Scope::Array, 0, false});
}

void JsonWriter::endArray() {
    VC_EXPECTS(stack_.back().scope == Scope::Array);
    stack_.pop_back();
    out_ += ']';
    afterValue();
}

void JsonWriter::key(std::string_view k) {
    Frame& top = stack_.back();
    VC_EXPECTS(top.scope == Scope::Object && !top.keyPending);
    if (top.items > 0) out_ += ',';
    out_ += '"';
    appendEscaped(out_, k);
    out_ += "\":";
    top.keyPending = true;
}

void JsonWriter::value(std::string_view v) {
    beforeValue();
    out_ += '"';
    appendEscaped(out_, v);
    out_ += '"';
    afterValue();
}

void JsonWriter::value(double v) {
    if (!std::isfinite(v)) {
        null(); // JSON has no NaN/Inf; null keeps the document parseable
        return;
    }
    beforeValue();
    char buf[32];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
    VC_ENSURES(ec == std::errc{});
    out_.append(buf, ptr);
    afterValue();
}

void JsonWriter::value(bool v) {
    beforeValue();
    out_ += v ? "true" : "false";
    afterValue();
}

void JsonWriter::value(std::uint64_t v) {
    beforeValue();
    appendInteger(out_, v);
    afterValue();
}

void JsonWriter::value(std::int64_t v) {
    beforeValue();
    appendInteger(out_, v);
    afterValue();
}

void JsonWriter::null() {
    beforeValue();
    out_ += "null";
    afterValue();
}

const std::string& JsonWriter::str() const {
    VC_EXPECTS(stack_.size() == 1 && stack_.back().items == 1);
    return out_;
}

} // namespace voltcache
