// Minimal dependency-free JSON writer.
//
// Streaming, append-only: callers emit begin/end/key/value calls and read the
// finished document with str(). Structural misuse (a value where a key is
// required, unbalanced scopes, reading an incomplete document) trips a
// contract violation rather than producing malformed output. Doubles are
// printed with the shortest round-trip representation; NaN and infinities —
// which JSON cannot represent — are emitted as null.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace voltcache {

class JsonWriter {
public:
    JsonWriter();

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /// Emit an object key; must be followed by exactly one value (or
    /// begin{Object,Array}).
    void key(std::string_view k);

    void value(std::string_view v);
    void value(const std::string& v) { value(std::string_view(v)); }
    void value(const char* v) { value(std::string_view(v)); }
    void value(double v);
    void value(bool v);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(std::uint32_t v) { value(static_cast<std::uint64_t>(v)); }
    void value(std::int32_t v) { value(static_cast<std::int64_t>(v)); }
    void null();

    /// key() + value() in one call.
    template <typename T>
    void member(std::string_view k, const T& v) {
        key(k);
        value(v);
    }

    /// The finished document. All scopes must be closed.
    [[nodiscard]] const std::string& str() const;

private:
    enum class Scope : std::uint8_t { Root, Object, Array };
    struct Frame {
        Scope scope = Scope::Root;
        std::size_t items = 0;   ///< values emitted in this scope so far
        bool keyPending = false; ///< object scope: key written, value due
    };

    void beforeValue();
    void afterValue();

    std::string out_;
    std::vector<Frame> stack_;
};

} // namespace voltcache
