#include "serve/server.h"

#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/json.h"
#include "common/table.h"
#include "core/analytic_gate.h"
#include "core/report.h"
#include "core/sweep_telemetry.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "workload/workload.h"

namespace voltcache::serve {

namespace {

/// Poll granularity for the accept loop, the executor's idle wait, and each
/// session's receive timeout: every blocking loop re-checks the stop flag at
/// least this often, which is what makes requestStop() prompt.
constexpr std::chrono::milliseconds kPollInterval{200};

/// Build the SweepConfig exactly the way cmdSweep does from its flags, so a
/// served job and a direct `voltcache sweep` produce byte-identical JSON.
SweepConfig configFromJob(const JobRequest& request) {
    SweepConfig config;
    config.trials = request.trials;
    config.scale = parseWorkloadScale(request.scale);
    config.maxInstructions = request.maxInstructions;
    config.threads = request.threads;
    config.baseSeed = request.seed;
    config.benchmarks = splitCsv(request.benchmarks);
    for (const std::string& name : splitCsv(request.schemes)) {
        config.schemes.push_back(parseSchemeKind(name));
    }
    config.points = DvfsTable::parseMillivoltList(request.mv);
    return config;
}

} // namespace

Server::Server(const ServeOptions& options)
    : options_(options),
      listener_(options.port),
      store_({options.storeBudgetBytes, options.storeDirectory}) {
    if (!options_.journalPath.empty()) {
        journal_.emplace(options_.journalPath, /*autoDrain=*/true, options_.journalMaxBytes);
    }
    if (!options_.flightRecordPath.empty()) {
        obs::FlightRecorder::Options flight;
        flight.path = options_.flightRecordPath;
        obs::FlightRecorder::install(flight);
    }
}

Server::~Server() = default;

void Server::requestStop() noexcept {
    stop_.store(true, std::memory_order_release);
    listener_.requestStop();
}

Server::Totals Server::totals() const noexcept {
    return {connections_.load(), jobsCompleted_.load(), jobsRejected_.load(),
            jobErrors_.load()};
}

void Server::run() {
    std::thread executor([this] { executorLoop(); });
    auto& registry = obs::MetricsRegistry::global();
    while (!stopping()) {
        net::Socket socket = listener_.accept(kPollInterval);
        std::vector<std::thread> finished;
        {
            const std::lock_guard<std::mutex> lock(stateMutex_);
            reapSessionsLocked(finished);
        }
        for (std::thread& thread : finished) thread.join();
        if (!socket.valid()) continue;
        socket.setRecvTimeout(kPollInterval);
        socket.setSendTimeout(options_.sendTimeout);
        auto session = std::make_shared<Session>();
        session->socket = std::move(socket);
        {
            const std::lock_guard<std::mutex> lock(stateMutex_);
            session->id = nextSessionId_++;
            sessions_.push_back(session);
            registry.set("serve.sessions", {}, static_cast<double>(sessions_.size()));
        }
        connections_.fetch_add(1, std::memory_order_relaxed);
        registry.add("serve.connections", {});
        session->reader = std::thread([this, session] { sessionLoop(session); });
    }
    // Drain: the executor finishes the in-flight job and rejects the rest,
    // then readers notice the stop flag within one poll interval.
    executor.join();
    std::vector<std::shared_ptr<Session>> sessions;
    {
        const std::lock_guard<std::mutex> lock(stateMutex_);
        sessions.swap(sessions_);
        registry.set("serve.sessions", {}, 0.0);
        registry.set("serve.queue_depth", {}, 0.0);
    }
    for (const auto& session : sessions) session->open.store(false);
    for (const auto& session : sessions) {
        if (session->reader.joinable()) session->reader.join();
    }
    if (journal_.has_value()) journal_->close();
    store_.flush();
}

std::size_t Server::queueDepthLocked() const {
    std::size_t depth = 0;
    for (const auto& session : sessions_) depth += session->queue.size();
    return depth;
}

void Server::reapSessionsLocked(std::vector<std::thread>& joinable) {
    for (auto it = sessions_.begin(); it != sessions_.end();) {
        Session& session = **it;
        if (!session.open.load(std::memory_order_acquire) && session.queue.empty() &&
            !session.busy.load(std::memory_order_acquire)) {
            joinable.push_back(std::move(session.reader));
            it = sessions_.erase(it);
            rrCursor_ = 0;
        } else {
            ++it;
        }
    }
    obs::MetricsRegistry::global().set("serve.sessions", {},
                                       static_cast<double>(sessions_.size()));
}

void Server::writeLines(Session& session, std::initializer_list<std::string_view> lines) {
    if (!session.open.load(std::memory_order_acquire)) return;
    std::vector<std::string_view> parts;
    parts.reserve(2 * lines.size());
    for (const std::string_view line : lines) {
        parts.push_back(line);
        parts.push_back("\n");
    }
    const std::lock_guard<std::mutex> lock(session.writeMutex);
    if (!session.socket.sendAll(parts)) {
        session.open.store(false, std::memory_order_release);
    }
}

void Server::sessionLoop(const std::shared_ptr<Session>& session) {
    LineReader reader(session->socket, kMaxRequestLineBytes);
    auto lastActivity = std::chrono::steady_clock::now();
    std::string line;
    while (session->open.load(std::memory_order_acquire) && !stopping()) {
        const LineReader::Status status = reader.next(line);
        if (status == LineReader::Status::Timeout) {
            const bool idle = !session->busy.load(std::memory_order_acquire) &&
                              std::chrono::steady_clock::now() - lastActivity >
                                  options_.idleTimeout;
            if (idle) {
                // Only an idle session is closed: queued or running jobs
                // keep the connection alive however long they take.
                bool hasQueued = false;
                {
                    const std::lock_guard<std::mutex> lock(stateMutex_);
                    hasQueued = !session->queue.empty();
                }
                if (!hasQueued) {
                    writeLine(*session, errorEvent("", "idle timeout"));
                    break;
                }
            }
            continue;
        }
        if (status == LineReader::Status::Overflow) {
            writeLine(*session,
                      errorEvent("", "request line exceeds " +
                                         std::to_string(kMaxRequestLineBytes) +
                                         " bytes"));
            break;
        }
        if (status != LineReader::Status::Line) break; // Eof or Error
        lastActivity = std::chrono::steady_clock::now();
        const Request request = parseRequest(line);
        switch (request.kind) {
            case Request::Kind::Ping:
                writeLine(*session, pongEvent());
                break;
            case Request::Kind::Stats:
                writeLine(*session, statsEvent());
                break;
            case Request::Kind::Invalid:
                writeLine(*session, errorEvent(request.job.id, request.error));
                break;
            case Request::Kind::Job: {
                if (stopping()) {
                    jobsRejected_.fetch_add(1, std::memory_order_relaxed);
                    obs::MetricsRegistry::global().add("serve.jobs_rejected", {});
                    writeLine(*session,
                              errorEvent(request.job.id, "server is shutting down"));
                    break;
                }
                // Admission mints the job's trace id when the client did not
                // choose one (or chose a malformed one), so the accepted
                // event always names the id `/trace/<id>` will answer to.
                JobRequest job = request.job;
                obs::TraceContext probe;
                if (!obs::parseTraceIdHex(job.trace, probe)) {
                    job.trace = obs::traceIdHex(obs::makeRootContext(
                        job.id.empty() ? job.op : job.id));
                }
                // `accepted` goes out before the executor can see the job,
                // so it always precedes the job's own result.
                std::size_t depth = 0;
                {
                    const std::lock_guard<std::mutex> lock(stateMutex_);
                    depth = queueDepthLocked() + 1;
                }
                writeLine(*session, acceptedEvent(job.id, depth, job.trace));
                {
                    const std::lock_guard<std::mutex> lock(stateMutex_);
                    session->queue.push_back(std::move(job));
                    depth = queueDepthLocked();
                }
                obs::MetricsRegistry::global().set("serve.queue_depth", {},
                                                   static_cast<double>(depth));
                jobsCv_.notify_one();
                break;
            }
        }
    }
    session->open.store(false, std::memory_order_release);
    // Jobs a vanished client left behind are dropped (there is nobody to
    // answer); the executor skips closed sessions.
    const std::lock_guard<std::mutex> lock(stateMutex_);
    jobsRejected_.fetch_add(session->queue.size(), std::memory_order_relaxed);
    session->queue.clear();
}

void Server::executorLoop() {
    auto& registry = obs::MetricsRegistry::global();
    while (true) {
        std::shared_ptr<Session> owner;
        JobRequest job;
        {
            std::unique_lock<std::mutex> lock(stateMutex_);
            jobsCv_.wait_for(lock, kPollInterval,
                             [this] { return queueDepthLocked() > 0 || stopping(); });
            for (std::size_t i = 0; i < sessions_.size(); ++i) {
                auto& candidate = sessions_[(rrCursor_ + i) % sessions_.size()];
                if (candidate->queue.empty()) continue;
                job = std::move(candidate->queue.front());
                candidate->queue.pop_front();
                owner = candidate;
                rrCursor_ = (rrCursor_ + i + 1) % sessions_.size();
                break;
            }
            if (owner == nullptr && stopping()) break;
            registry.set("serve.queue_depth", {},
                         static_cast<double>(queueDepthLocked()));
        }
        if (owner == nullptr) continue;
        if (!owner->open.load(std::memory_order_acquire)) {
            jobsRejected_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        if (stopping()) {
            jobsRejected_.fetch_add(1, std::memory_order_relaxed);
            registry.add("serve.jobs_rejected", {});
            writeLine(*owner, errorEvent(job.id, "server is shutting down"));
            continue;
        }
        owner->busy.store(true, std::memory_order_release);
        runJob(*owner, job);
        owner->busy.store(false, std::memory_order_release);
    }
}

void Server::runJob(Session& session, const JobRequest& request) {
    const auto started = std::chrono::steady_clock::now();
    auto& registry = obs::MetricsRegistry::global();
    registry.add("serve.jobs", {{"op", request.op}});
    registry.add("serve.session.jobs", {{"session", std::to_string(session.id)}});
    SweepTelemetry sinks{options_.board, journal_.has_value() ? &*journal_ : nullptr,
                         obs::FlightRecorder::instance(), {}};
    // Admission minted (or validated) the id, so this parse only fails for a
    // job queued by an older client path — tracing just stays off then.
    (void)obs::parseTraceIdHex(request.trace, sinks.trace);
    const std::string jobLabel =
        request.op + ":" + (request.id.empty() ? "job" : request.id);
    try {
        SweepConfig config = configFromJob(request);
        if (config.threads == 0) config.threads = options_.threads;
        config.resultSource = &store_;
        const LegStore::Stats before = store_.stats();
        // The last boundary tick carries the final sweep-wide counters.
        SweepProgress last;
        config.onProgress = [this, &session, &request, &last](const SweepProgress& progress) {
            last = progress;
            if (request.progress) {
                writeLine(session, progressEvent(request.id, progress));
            }
        };
        SweepResult result;
        {
            // The executor runs one job at a time, so the scope's current
            // trace context attributes obs::Span phase spans to this job.
            const SweepJobScope scope(config, jobLabel, sinks);
            result = runSweep(config);
        }

        std::optional<analysis::CrosscheckReport> analytic;
        if (request.op == "verify") analytic = analyticCrosscheck(result, config);
        const std::string document = sweepResultToJson(
            result, sweepExportMeta(config, analytic.has_value() ? &*analytic : nullptr));

        const LegStore::Stats after = store_.stats();
        ResultSummary summary;
        summary.ok = !analytic.has_value() || analytic->passed();
        summary.legs = last.legsTotal;
        summary.legsCached = last.legsCached;
        summary.storeHits = after.hits - before.hits;
        summary.storeMisses = after.misses - before.misses;
        summary.elapsedSeconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
                .count();
        if (analytic.has_value()) {
            summary.analytic = true;
            summary.analyticPassed = analytic->passed();
            summary.maxZ = analytic->maxZ();
        }
        summary.documentBytes = document.size();
        summary.trace = request.trace;
        writeLines(session, {resultEvent(request.id, summary), document});
        jobsCompleted_.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception& e) {
        jobErrors_.fetch_add(1, std::memory_order_relaxed);
        registry.add("serve.job_errors", {});
        writeLine(session, errorEvent(request.id, e.what()));
    }
}

std::string Server::statsEvent() {
    const LegStore::Stats store = store_.stats();
    std::size_t depth = 0;
    {
        const std::lock_guard<std::mutex> lock(stateMutex_);
        depth = queueDepthLocked();
    }
    JsonWriter json;
    json.beginObject();
    json.member("ev", "stats");
    json.key("store");
    json.beginObject();
    json.member("hits", store.hits);
    json.member("misses", store.misses);
    json.member("inserts", store.inserts);
    json.member("evictions", store.evictions);
    json.member("loaded", store.loaded);
    json.member("rejected", store.rejected);
    json.member("entries", store.entries);
    json.member("bytes", store.bytes);
    json.endObject();
    json.member("jobsCompleted", jobsCompleted_.load());
    json.member("jobsRejected", jobsRejected_.load());
    json.member("jobErrors", jobErrors_.load());
    json.member("connections", connections_.load());
    json.member("queue", static_cast<std::uint64_t>(depth));
    json.endObject();
    return json.str();
}

} // namespace voltcache::serve
