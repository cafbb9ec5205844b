// The `voltcache serve` wire protocol: newline-delimited JSON over loopback
// TCP, one document per line in both directions.
//
// Requests (client → server), one object per line:
//   {"op":"ping"}                         → {"ev":"pong"}
//   {"op":"stats"}                        → {"ev":"stats", ...}
//   {"op":"sweep"|"run"|"verify", "id":"...", "trials":N,
//    "benchmarks":"csv", "schemes":"csv", "scale":"small", "mv":"csv",
//    "threads":N, "seed":N, "maxInstructions":N, "progress":true}
// Every N is a plain non-negative integer, read exactly up to its field's
// range (a 64-bit seed keeps every digit); any other value is rejected
// with an error event carrying the job's id.
//
// `run` is a degenerate sweep (defaults trials=1) for one-off legs; `verify`
// runs the sweep under the analytic cross-check gate and reports pass/fail.
// All three flatten into legs on the same executor and consult the same
// content-addressed store.
//
// Responses (server → client), in order per job:
//   {"ev":"accepted","id":...,"queue":N}
//   {"ev":"progress","id":..., legs/benchmarks counters}   (opt-in, throttled)
//   {"ev":"result","id":...,"ok":true, hit/miss summary, "bytes":L}
//   <the raw sweep JSON document — one line of exactly L bytes>
//   {"ev":"error","id":...,"message":"..."}                (instead of result)
//
// Per job the order is fixed: `accepted` is written before the executor can
// see the job, so it precedes every other event of that job, and the result
// event and its document go out as one write under the session's write
// lock. Replies to pipelined ping/stats requests (written by the reader
// thread) can interleave between a job's events, but never between a result
// and its document.
//
// The document line is byte-identical to what `voltcache sweep --json` would
// have written (sans trailing newline): the server frames the exact string
// and never reserializes it, so clients can diff server output against the
// direct CLI path.
//
// Framing rules: requests are capped at kMaxRequestLineBytes (a hostile or
// broken client cannot balloon the server's line buffer); responses are read
// with a much larger cap since one line carries a whole sweep document.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/socket.h"
#include "core/sweep.h"

namespace voltcache::serve {

/// Server-side cap on one request line (requests are small flag bundles).
inline constexpr std::size_t kMaxRequestLineBytes = 64 * 1024;

/// Client-side cap on one response line (the result document can be MBs).
inline constexpr std::size_t kMaxResponseLineBytes = 256ull << 20;

/// A parsed sweep/run/verify job. String list fields keep the CLI's CSV
/// syntax so `voltcache submit` forwards its flags verbatim.
struct JobRequest {
    std::string op;         ///< "sweep" | "run" | "verify"
    std::string id;         ///< client-chosen label, echoed on every event
    std::string benchmarks; ///< CSV, empty = all
    std::string schemes;    ///< CSV, empty = the paper set
    std::string scale = "small";
    std::string mv;         ///< CSV millivolts, empty = Table II low-voltage set
    std::uint32_t trials = 3; ///< `run` defaults to 1
    unsigned threads = 0;
    std::uint64_t seed = 0xC0FFEE;
    std::uint64_t maxInstructions = 0;
    bool progress = false;  ///< stream progress events for this job
    /// 32-hex-char trace id (obs/trace_context.h) chosen by the client
    /// (`voltcache submit` mints one). Empty = the server mints one at
    /// admission. Echoed on accepted/result events so the client can fetch
    /// `/trace/<id>` from the telemetry plane afterwards.
    std::string trace;
};

struct Request {
    enum class Kind : std::uint8_t { Ping, Stats, Job, Invalid };
    Kind kind = Kind::Invalid;
    JobRequest job;     ///< Kind::Job (a rejected job request keeps its id)
    std::string error;  ///< Kind::Invalid only
};

/// Parse one request line. Never throws: malformed JSON or an unknown op
/// yields Kind::Invalid with a diagnostic.
[[nodiscard]] Request parseRequest(std::string_view line);

/// Serialize a job as one request line (no trailing newline) — the
/// `voltcache submit` side of parseRequest.
[[nodiscard]] std::string jobToJson(const JobRequest& job);

/// What the result event reports alongside the framed document.
struct ResultSummary {
    bool ok = true;
    std::uint64_t legs = 0;
    std::uint64_t legsCached = 0;
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;
    double elapsedSeconds = 0.0;
    bool analytic = false;       ///< verify jobs: cross-check ran
    bool analyticPassed = false;
    double maxZ = 0.0;
    std::size_t documentBytes = 0;
    std::string trace;           ///< the job's 32-hex trace id ("" = untraced)
};

/// Response event builders (no trailing newline). `trace` is the job's
/// 32-hex trace id; empty omits the field.
[[nodiscard]] std::string pongEvent();
[[nodiscard]] std::string acceptedEvent(const std::string& id, std::size_t queueDepth,
                                        const std::string& trace = {});
[[nodiscard]] std::string errorEvent(const std::string& id, std::string_view message);
[[nodiscard]] std::string progressEvent(const std::string& id, const SweepProgress& p);
[[nodiscard]] std::string resultEvent(const std::string& id, const ResultSummary& s);

/// Incremental newline-delimited reader over Socket::recvSome. Bounded:
/// a line longer than maxLine bytes (before its '\n') reports Overflow
/// instead of growing the buffer, and a socket-level timeout surfaces as
/// Timeout so callers own the deadline policy. Bytes after the returned
/// line stay buffered, and each buffered byte is searched for '\n' once.
class LineReader {
public:
    enum class Status : std::uint8_t { Line, Eof, Timeout, Error, Overflow };

    LineReader(net::Socket& socket, std::size_t maxLine)
        : socket_(socket), maxLine_(maxLine) {}

    /// Block (up to the socket's receive timeout) for the next line. On
    /// Status::Line, `line` holds the content without the terminator (a
    /// trailing '\r' is stripped).
    [[nodiscard]] Status next(std::string& line);

private:
    net::Socket& socket_;
    std::string buffer_;
    std::size_t scanned_ = 0; ///< prefix of buffer_ known to hold no '\n'
    std::size_t maxLine_;
};

} // namespace voltcache::serve
