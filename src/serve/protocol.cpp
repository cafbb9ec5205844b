#include "serve/protocol.h"

#include <charconv>
#include <climits>
#include <cstdint>

#include "common/json.h"
#include "common/json_parse.h"

namespace voltcache::serve {

namespace {

/// Integer member `key`, exact to the last digit: its source token must be
/// a plain non-negative integer no larger than `max`. Going through double
/// would round seeds above 2^53 onto another chip, and a negative,
/// fractional, or huge value has no defined conversion at all.
std::uint64_t integerMember(const JsonValue& doc, std::string_view key,
                            std::uint64_t fallback, std::uint64_t max) {
    const JsonValue* value = doc.find(key);
    if (value == nullptr) return fallback;
    const std::string& token = value->string;
    std::uint64_t out = 0;
    const auto [end, error] = std::from_chars(token.data(), token.data() + token.size(), out);
    if (value->kind != JsonValue::Kind::Number || error != std::errc{} ||
        end != token.data() + token.size() || out > max) {
        throw JsonParseError("'" + std::string(key) + "' must be an integer in [0, " +
                             std::to_string(max) + "]");
    }
    return out;
}

} // namespace

Request parseRequest(std::string_view line) {
    Request request;
    JsonValue doc;
    try {
        doc = parseJson(line);
    } catch (const JsonParseError& e) {
        request.error = e.what();
        return request;
    }
    if (!doc.isObject()) {
        request.error = "request must be a JSON object";
        return request;
    }
    const std::string op = doc.stringOr("op", "");
    if (op == "ping") {
        request.kind = Request::Kind::Ping;
        return request;
    }
    if (op == "stats") {
        request.kind = Request::Kind::Stats;
        return request;
    }
    if (op != "sweep" && op != "run" && op != "verify") {
        request.error = "unknown op '" + op + "' (sweep|run|verify|ping|stats)";
        return request;
    }
    JobRequest& job = request.job;
    job.op = op;
    if (op == "run") job.trials = 1;
    job.id = doc.stringOr("id", "");
    try {
        job.benchmarks = doc.stringOr("benchmarks", "");
        job.schemes = doc.stringOr("schemes", "");
        job.scale = doc.stringOr("scale", job.scale);
        job.mv = doc.stringOr("mv", "");
        job.trials = static_cast<std::uint32_t>(
            integerMember(doc, "trials", job.trials, UINT32_MAX));
        job.threads = static_cast<unsigned>(integerMember(doc, "threads", 0, UINT_MAX));
        job.seed = integerMember(doc, "seed", job.seed, UINT64_MAX);
        job.maxInstructions = integerMember(doc, "maxInstructions", 0, UINT64_MAX);
        if (const JsonValue* progress = doc.find("progress")) {
            job.progress = progress->asBool();
        }
        job.trace = doc.stringOr("trace", "");
        request.kind = Request::Kind::Job;
    } catch (const JsonParseError& e) {
        request.error = e.what();
    }
    return request;
}

std::string jobToJson(const JobRequest& job) {
    JsonWriter json;
    json.beginObject();
    json.member("op", job.op);
    if (!job.id.empty()) json.member("id", job.id);
    if (!job.benchmarks.empty()) json.member("benchmarks", job.benchmarks);
    if (!job.schemes.empty()) json.member("schemes", job.schemes);
    json.member("scale", job.scale);
    if (!job.mv.empty()) json.member("mv", job.mv);
    json.member("trials", job.trials);
    if (job.threads != 0) json.member("threads", static_cast<std::uint64_t>(job.threads));
    json.member("seed", job.seed);
    if (job.maxInstructions != 0) json.member("maxInstructions", job.maxInstructions);
    if (job.progress) json.member("progress", true);
    if (!job.trace.empty()) json.member("trace", job.trace);
    json.endObject();
    return json.str();
}

std::string pongEvent() {
    JsonWriter json;
    json.beginObject();
    json.member("ev", "pong");
    json.endObject();
    return json.str();
}

std::string acceptedEvent(const std::string& id, std::size_t queueDepth,
                          const std::string& trace) {
    JsonWriter json;
    json.beginObject();
    json.member("ev", "accepted");
    json.member("id", id);
    json.member("queue", static_cast<std::uint64_t>(queueDepth));
    if (!trace.empty()) json.member("trace", trace);
    json.endObject();
    return json.str();
}

std::string errorEvent(const std::string& id, std::string_view message) {
    JsonWriter json;
    json.beginObject();
    json.member("ev", "error");
    json.member("id", id);
    json.member("message", message);
    json.endObject();
    return json.str();
}

std::string progressEvent(const std::string& id, const SweepProgress& p) {
    JsonWriter json;
    json.beginObject();
    json.member("ev", "progress");
    json.member("id", id);
    json.member("benchmarksCompleted", static_cast<std::uint64_t>(p.benchmarksCompleted));
    json.member("benchmarksTotal", static_cast<std::uint64_t>(p.benchmarksTotal));
    json.member("legsCompleted", static_cast<std::uint64_t>(p.legsCompleted));
    json.member("legsTotal", static_cast<std::uint64_t>(p.legsTotal));
    json.member("legsReplayed", static_cast<std::uint64_t>(p.legsReplayed));
    json.member("legsExecuted", static_cast<std::uint64_t>(p.legsExecuted));
    json.member("legsCached", static_cast<std::uint64_t>(p.legsCached));
    json.member("workers", p.workers);
    json.endObject();
    return json.str();
}

std::string resultEvent(const std::string& id, const ResultSummary& s) {
    const std::uint64_t lookups = s.storeHits + s.storeMisses;
    JsonWriter json;
    json.beginObject();
    json.member("ev", "result");
    json.member("id", id);
    json.member("ok", s.ok);
    json.member("legs", s.legs);
    json.member("legsCached", s.legsCached);
    json.member("storeHits", s.storeHits);
    json.member("storeMisses", s.storeMisses);
    json.member("hitRate", lookups == 0
                               ? 0.0
                               : static_cast<double>(s.storeHits) /
                                     static_cast<double>(lookups));
    json.member("elapsedSeconds", s.elapsedSeconds);
    if (s.analytic) {
        json.member("analyticPassed", s.analyticPassed);
        json.member("maxZ", s.maxZ);
    }
    if (!s.trace.empty()) json.member("trace", s.trace);
    json.member("bytes", static_cast<std::uint64_t>(s.documentBytes));
    json.endObject();
    return json.str();
}

LineReader::Status LineReader::next(std::string& line) {
    while (true) {
        const std::size_t newline = buffer_.find('\n', scanned_);
        if (newline != std::string::npos) {
            if (newline > maxLine_) return Status::Overflow;
            line.assign(buffer_, 0, newline);
            if (!line.empty() && line.back() == '\r') line.pop_back();
            buffer_.erase(0, newline + 1);
            scanned_ = 0;
            return Status::Line;
        }
        scanned_ = buffer_.size();
        if (buffer_.size() > maxLine_) return Status::Overflow;
        switch (socket_.recvSome(buffer_)) {
            case net::Socket::RecvStatus::Data: break;
            case net::Socket::RecvStatus::Eof: return Status::Eof;
            case net::Socket::RecvStatus::Timeout: return Status::Timeout;
            case net::Socket::RecvStatus::Error: return Status::Error;
        }
    }
}

} // namespace voltcache::serve
