#include "common/json_parse.h"

#include <cctype>
#include <cstdlib>

namespace voltcache {

namespace {

constexpr std::size_t kMaxDepth = 128;

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue parseDocument() {
        JsonValue value = parseValue(0);
        skipWhitespace();
        if (pos_ != text_.size()) fail("trailing characters after document");
        return value;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw JsonParseError("json parse error at byte " + std::to_string(pos_) + ": " +
                             what);
    }

    void skipWhitespace() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos_;
        }
    }

    [[nodiscard]] char peek() {
        skipWhitespace();
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consumeLiteral(std::string_view literal) {
        if (text_.substr(pos_, literal.size()) != literal) return false;
        pos_ += literal.size();
        return true;
    }

    JsonValue parseValue(std::size_t depth) {
        if (depth > kMaxDepth) fail("nesting too deep");
        const char c = peek();
        switch (c) {
            case '{': return parseObject(depth);
            case '[': return parseArray(depth);
            case '"': {
                JsonValue value;
                value.kind = JsonValue::Kind::String;
                value.string = parseString();
                return value;
            }
            case 't':
            case 'f': {
                JsonValue value;
                value.kind = JsonValue::Kind::Bool;
                if (consumeLiteral("true")) {
                    value.boolean = true;
                } else if (consumeLiteral("false")) {
                    value.boolean = false;
                } else {
                    fail("bad literal");
                }
                return value;
            }
            case 'n': {
                if (!consumeLiteral("null")) fail("bad literal");
                return JsonValue{};
            }
            default: return parseNumber();
        }
    }

    JsonValue parseObject(std::size_t depth) {
        expect('{');
        JsonValue value;
        value.kind = JsonValue::Kind::Object;
        if (peek() == '}') {
            ++pos_;
            return value;
        }
        while (true) {
            if (peek() != '"') fail("expected object key");
            std::string key = parseString();
            expect(':');
            value.members.emplace_back(std::move(key), parseValue(depth + 1));
            const char next = peek();
            if (next == ',') {
                ++pos_;
                continue;
            }
            if (next == '}') {
                ++pos_;
                return value;
            }
            fail("expected ',' or '}' in object");
        }
    }

    JsonValue parseArray(std::size_t depth) {
        expect('[');
        JsonValue value;
        value.kind = JsonValue::Kind::Array;
        if (peek() == ']') {
            ++pos_;
            return value;
        }
        while (true) {
            value.items.push_back(parseValue(depth + 1));
            const char next = peek();
            if (next == ',') {
                ++pos_;
                continue;
            }
            if (next == ']') {
                ++pos_;
                return value;
            }
            fail("expected ',' or ']' in array");
        }
    }

    std::string parseString() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': appendCodepoint(out, parseHex4()); break;
                default: fail("bad escape");
            }
        }
    }

    std::uint32_t parseHex4() {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        std::uint32_t value = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_++];
            value <<= 4;
            if (c >= '0' && c <= '9') {
                value |= static_cast<std::uint32_t>(c - '0');
            } else if (c >= 'a' && c <= 'f') {
                value |= static_cast<std::uint32_t>(c - 'a' + 10);
            } else if (c >= 'A' && c <= 'F') {
                value |= static_cast<std::uint32_t>(c - 'A' + 10);
            } else {
                fail("bad \\u escape");
            }
        }
        return value;
    }

    /// Encode a BMP codepoint as UTF-8 (surrogate pairs are combined when a
    /// high surrogate is followed by an escaped low surrogate).
    void appendCodepoint(std::string& out, std::uint32_t cp) {
        if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
                pos_ += 2;
                const std::uint32_t low = parseHex4();
                if (low < 0xDC00 || low > 0xDFFF) fail("unpaired surrogate");
                cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            } else {
                fail("unpaired surrogate");
            }
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
        }
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    JsonValue parseNumber() {
        skipWhitespace();
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
                text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
                text_[pos_] == '+' || text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start) fail("expected a value");
        const std::string token(text_.substr(start, pos_ - start));
        char* end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0') {
            pos_ = start;
            fail("malformed number '" + token + "'");
        }
        JsonValue out;
        out.kind = JsonValue::Kind::Number;
        out.number = value;
        out.string = token;
        return out;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

} // namespace

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
    if (kind != Kind::Object) return nullptr;
    for (const auto& [name, value] : members) {
        if (name == key) return &value;
    }
    return nullptr;
}

double JsonValue::asNumber() const {
    if (kind != Kind::Number) throw JsonParseError("expected a number");
    return number;
}

bool JsonValue::asBool() const {
    if (kind != Kind::Bool) throw JsonParseError("expected a boolean");
    return boolean;
}

const std::string& JsonValue::asString() const {
    if (kind != Kind::String) throw JsonParseError("expected a string");
    return string;
}

double JsonValue::numberOr(std::string_view key, double fallback) const {
    const JsonValue* value = find(key);
    return value != nullptr && value->kind == Kind::Number ? value->number : fallback;
}

std::string JsonValue::stringOr(std::string_view key, const std::string& fallback) const {
    const JsonValue* value = find(key);
    return value != nullptr && value->kind == Kind::String ? value->string : fallback;
}

JsonValue parseJson(std::string_view text) { return Parser(text).parseDocument(); }

} // namespace voltcache
