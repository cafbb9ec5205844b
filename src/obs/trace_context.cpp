#include "obs/trace_context.h"

#include <unistd.h>

#include <atomic>
#include <chrono>

#include "common/hash.h"
#include "obs/clock.h"

namespace voltcache::obs {

namespace {

std::uint64_t wallNs() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

std::uint64_t loadU64(const Digest256& digest, std::size_t offset) {
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        value |= static_cast<std::uint64_t>(digest[offset + i]) << (8 * i);
    }
    return value;
}

void appendHex64(std::string& out, std::uint64_t value) {
    static constexpr char kHex[] = "0123456789abcdef";
    for (int shift = 60; shift >= 0; shift -= 4) {
        out.push_back(kHex[(value >> shift) & 0xF]);
    }
}

bool parseHex64(std::string_view hex, std::uint64_t& value) {
    if (hex.size() != 16) return false;
    std::uint64_t parsed = 0;
    for (const char c : hex) {
        std::uint64_t nibble = 0;
        if (c >= '0' && c <= '9') nibble = static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f') nibble = static_cast<std::uint64_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F') nibble = static_cast<std::uint64_t>(c - 'A' + 10);
        else return false;
        parsed = (parsed << 4) | nibble;
    }
    value = parsed;
    return true;
}

} // namespace

TraceContext makeRootContext(std::string_view label) {
    static std::atomic<std::uint64_t> counter{0};
    HashWriter hasher;
    hasher.str("voltcache.trace.root");
    hasher.str(label);
    hasher.u64(wallNs());
    hasher.u64(steadyNowNs());
    hasher.u64(static_cast<std::uint64_t>(::getpid()));
    hasher.u64(counter.fetch_add(1, std::memory_order_relaxed));
    const Digest256 digest = hasher.finish();
    TraceContext context;
    context.traceHi = loadU64(digest, 0);
    context.traceLo = loadU64(digest, 8);
    if (!context.valid()) context.traceLo = 1; // astronomically unlikely
    context.spanId = rootSpanId(context);
    return context;
}

std::uint64_t rootSpanId(const TraceContext& context) {
    HashWriter hasher;
    hasher.str("voltcache.trace.span0");
    hasher.u64(context.traceHi);
    hasher.u64(context.traceLo);
    const std::uint64_t id = loadU64(hasher.finish(), 0);
    return id == 0 ? 1 : id;
}

std::uint64_t childSpanId(const TraceContext& parent, std::uint64_t index) {
    HashWriter hasher;
    hasher.str("voltcache.trace.child");
    hasher.u64(parent.traceHi);
    hasher.u64(parent.traceLo);
    hasher.u64(parent.spanId);
    hasher.u64(index);
    const std::uint64_t id = loadU64(hasher.finish(), 0);
    return id == 0 ? 1 : id;
}

std::string traceIdHex(const TraceContext& context) {
    if (!context.valid()) return {};
    std::string out;
    out.reserve(32);
    appendHex64(out, context.traceHi);
    appendHex64(out, context.traceLo);
    return out;
}

std::string spanIdHex(std::uint64_t spanId) {
    std::string out;
    out.reserve(16);
    appendHex64(out, spanId);
    return out;
}

bool parseTraceIdHex(std::string_view hex, TraceContext& context) {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    if (hex.size() != 32 || !parseHex64(hex.substr(0, 16), hi) ||
        !parseHex64(hex.substr(16), lo)) {
        return false;
    }
    if ((hi | lo) == 0) return false;
    context.traceHi = hi;
    context.traceLo = lo;
    context.spanId = rootSpanId(context);
    return true;
}

} // namespace voltcache::obs
