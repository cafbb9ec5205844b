// Minimal dependency-free JSON parser — the read-side twin of JsonWriter.
//
// Parses a complete document into a JsonValue tree (objects keep member
// source order). Strict where it matters for our own artifacts: rejects
// trailing garbage, unterminated strings/scopes, bad escapes, and documents
// nested deeper than a fixed bound. Numbers are doubles (every numeric field
// we export round-trips through double already). Consumers: tools/bench_check
// (BENCH_*.json diffing) and `voltcache profile` (sweep/profile JSON).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace voltcache {

class JsonParseError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

struct JsonValue {
    enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;  ///< Kind::String; Kind::Number: the source token
    std::vector<JsonValue> items;                           ///< Kind::Array
    std::vector<std::pair<std::string, JsonValue>> members; ///< Kind::Object

    [[nodiscard]] bool isNull() const noexcept { return kind == Kind::Null; }
    [[nodiscard]] bool isObject() const noexcept { return kind == Kind::Object; }
    [[nodiscard]] bool isArray() const noexcept { return kind == Kind::Array; }

    /// Object member by key, or nullptr (first match wins).
    [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

    /// Typed accessors; throw JsonParseError on kind mismatch so schema
    /// drift surfaces as a clear error, not a zero.
    [[nodiscard]] double asNumber() const;
    [[nodiscard]] bool asBool() const;
    [[nodiscard]] const std::string& asString() const;

    /// find() + asNumber()/asString() with a fallback for absent members.
    [[nodiscard]] double numberOr(std::string_view key, double fallback) const;
    [[nodiscard]] std::string stringOr(std::string_view key,
                                       const std::string& fallback) const;
};

/// Parse one complete JSON document. Throws JsonParseError with a byte
/// offset on malformed input.
[[nodiscard]] JsonValue parseJson(std::string_view text);

} // namespace voltcache
