#include "serve/server.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "common/json.h"
#include "common/version.h"
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

std::vector<std::string> splitCsv(const std::string& text) {
    std::vector<std::string> parts;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::size_t end = comma == std::string::npos ? text.size() : comma;
        if (end > pos) parts.push_back(text.substr(pos, end - pos));
        pos = end + 1;
    }
    return parts;
}

WorkloadScale parseScale(const std::string& name) {
    if (name == "tiny") return WorkloadScale::Tiny;
    if (name == "small") return WorkloadScale::Small;
    if (name == "reference") return WorkloadScale::Reference;
    throw std::runtime_error("unknown scale '" + name + "' (tiny|small|reference)");
}

const char* scaleName(WorkloadScale scale) {
    switch (scale) {
        case WorkloadScale::Tiny: return "tiny";
        case WorkloadScale::Small: return "small";
        case WorkloadScale::Reference: return "reference";
    }
    return "?";
}

SchemeKind parseScheme(const std::string& name) {
    for (const SchemeKind kind :
         {SchemeKind::DefectFree, SchemeKind::Conventional760, SchemeKind::Robust8T,
          SchemeKind::SimpleWordDisable, SchemeKind::WilkersonPlus, SchemeKind::FbaPlus,
          SchemeKind::IdcPlus, SchemeKind::FfwBbr}) {
        if (schemeName(kind) == name) return kind;
    }
    throw std::runtime_error("unknown scheme '" + name + "'");
}

/// Build the SweepConfig exactly the way cmdSweep does from its flags, so a
/// served job and a direct `voltcache sweep` produce byte-identical JSON.
SweepConfig configFromJob(const JobRequest& request) {
    SweepConfig config;
    config.trials = request.trials;
    config.scale = parseScale(request.scale);
    config.maxInstructions = request.maxInstructions;
    config.threads = request.threads;
    config.baseSeed = request.seed;
    config.benchmarks = splitCsv(request.benchmarks);
    for (const std::string& name : splitCsv(request.schemes)) {
        config.schemes.push_back(parseScheme(name));
    }
    for (const std::string& mv : splitCsv(request.mv)) {
        config.points.push_back(
            DvfsTable::at(Voltage::fromMillivolts(std::stod(mv))));
    }
    return config;
}

} // namespace

Server::Server(const ServeOptions& options)
    : options_(options),
      listener_(options.port),
      store_({options.storeBudgetBytes, options.storeDirectory}) {
    if (!options_.journalPath.empty()) {
        journal_.emplace(options_.journalPath, sweepJournalProducers(options_.threads),
                         /*ringCapacity=*/4096, /*autoDrain=*/true,
                         options_.journalMaxBytes);
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

void Server::writeLine(Session& session, const std::string& line) {
    if (!session.open.load(std::memory_order_acquire)) return;
    const std::lock_guard<std::mutex> lock(session.writeMutex);
    std::string framed;
    framed.reserve(line.size() + 1);
    framed.append(line);
    framed.push_back('\n');
    if (!session.socket.sendAll(framed)) {
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
                std::size_t depth = 0;
                {
                    const std::lock_guard<std::mutex> lock(stateMutex_);
                    session->queue.push_back(job);
                    depth = queueDepthLocked();
                }
                obs::MetricsRegistry::global().set("serve.queue_depth", {},
                                                   static_cast<double>(depth));
                jobsCv_.notify_one();
                writeLine(*session, acceptedEvent(job.id, depth, job.trace));
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
    // Admission minted (or validated) the id, so this parse only fails for a
    // job queued by an older client path — tracing just stays off then.
    obs::TraceContext trace;
    const bool traced = obs::parseTraceIdHex(request.trace, trace);
    const std::string jobLabel =
        request.op + ":" + (request.id.empty() ? "job" : request.id);
    obs::FlightRecorder* flight = obs::FlightRecorder::instance();
    try {
        SweepConfig config = configFromJob(request);
        if (config.threads == 0) config.threads = options_.threads;
        config.resultSource = &store_;
        if (traced) config.trace = trace;
        const LegStore::Stats before = store_.stats();
        if (options_.board != nullptr) options_.board->beginJob(jobLabel);
        if (traced) obs::JobTraceStore::global().beginJob(jobLabel, trace);
        if (flight != nullptr) flight->noteJob(jobLabel, trace);
        // The last boundary tick carries the final sweep-wide counters.
        SweepProgress last;
        config.onProgress = [this, &session, &request, &last](const SweepProgress& progress) {
            last = progress;
            if (request.progress) {
                writeLine(session, progressEvent(request.id, progress));
            }
        };
        attachTelemetry(config, {options_.board, journal_.has_value() ? &*journal_ : nullptr,
                                 flight});

        SweepResult result;
        {
            // obs::Span phase spans closed inside this scope attribute to
            // this job's trace (the executor runs one job at a time).
            const obs::ScopedTraceContext scope(traced ? trace
                                                        : obs::TraceContext{});
            result = runSweep(config);
        }
        if (traced) obs::JobTraceStore::global().endJob(trace);
        if (options_.board != nullptr) options_.board->finish();

        SweepExportMeta meta;
        meta.version = std::string(buildVersion());
        meta.seed = config.baseSeed;
        meta.trials = config.trials;
        meta.scale = scaleName(config.scale);
        meta.benchmarks = config.benchmarks;
        if (meta.benchmarks.empty()) {
            for (const auto& info : benchmarkList()) {
                meta.benchmarks.emplace_back(info.name);
            }
        }
        std::optional<analysis::CrosscheckReport> analytic;
        if (request.op == "verify") {
            analytic = analyticCrosscheck(result, config);
            meta.extensions = [&analytic](JsonWriter& json) {
                json.key("analytic");
                analysis::writeJson(json, *analytic);
            };
        }
        const std::string document = sweepResultToJson(result, meta);

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
        writeLine(session, resultEvent(request.id, summary));
        writeLine(session, document);
        jobsCompleted_.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception& e) {
        if (traced) obs::JobTraceStore::global().endJob(trace);
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
