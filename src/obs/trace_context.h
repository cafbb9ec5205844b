// Per-job distributed-tracing context for the serve plane.
//
// A TraceContext is a 128-bit trace id plus the 64-bit span id of the
// current scope, both drawn from the repo's own SHA-256 (common/hash.h) so
// ids are well-mixed without a CSPRNG dependency. The id is minted once per
// job — by `voltcache submit` on the client, or by the serve daemon when a
// client did not choose one — and propagated through the NDJSON protocol,
// the session queue, the executor, and into every sweep leg: each leg's
// obs::LegEvent carries (traceHi, traceLo, spanId) where spanId is the leg's
// child span derived deterministically from (trace id, parent span, leg
// index). Derivation, not random draws, keeps the sweep byte-identical and
// replayable: the same job config always yields the same span tree.
//
// A job's timeline — its leg and phase spans under these ids — is kept by
// obs::JobTraceStore (obs/trace.h).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace voltcache::obs {

/// 128-bit trace id + the 64-bit span id of the owning scope. Zero trace id
/// means "tracing off" — the safe default everywhere.
struct TraceContext {
    std::uint64_t traceHi = 0;
    std::uint64_t traceLo = 0;
    std::uint64_t spanId = 0;

    [[nodiscard]] bool valid() const noexcept { return (traceHi | traceLo) != 0; }

    friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// Mint a fresh root context: the trace id hashes `label`, the wall clock,
/// the process id, and a process-local counter, so concurrent clients and
/// repeated jobs never collide. The root span id is rootSpanId(id).
[[nodiscard]] TraceContext makeRootContext(std::string_view label);

/// Deterministic root span id: a pure function of the 128-bit trace id, so
/// a client that minted the id and a server that re-parsed it from hex agree
/// on the span tree without shipping the span id over the wire.
[[nodiscard]] std::uint64_t rootSpanId(const TraceContext& context);

/// Deterministic child span id: hash of (trace id, parent span id, index).
/// The sweep uses the canonical leg index, so a replayed job reproduces the
/// exact same span tree.
[[nodiscard]] std::uint64_t childSpanId(const TraceContext& parent, std::uint64_t index);

/// 32 lowercase hex chars (hi then lo). Invalid contexts render as "".
[[nodiscard]] std::string traceIdHex(const TraceContext& context);

/// 16 lowercase hex chars.
[[nodiscard]] std::string spanIdHex(std::uint64_t spanId);

/// Parse a 32-hex-char trace id into traceHi/traceLo and set spanId to the
/// root span id. Returns false (context unmodified) on malformed input.
[[nodiscard]] bool parseTraceIdHex(std::string_view hex, TraceContext& context);

} // namespace voltcache::obs
