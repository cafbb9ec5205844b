// The `voltcache serve` daemon: sweep-as-a-service over loopback TCP.
//
// One accept loop (the caller's thread, via run()), one reader thread per
// client connection, and ONE executor thread that drains the per-session
// job queues in round-robin order — so a client that enqueues fifty sweeps
// cannot starve a client that enqueues one. Jobs flatten into legs on the
// ordinary runSweep executor (parallelism lives inside the job); every job
// consults the shared content-addressed LegStore before simulating, so
// overlapping sweeps from any number of clients pay for each unique leg
// once.
//
// Graceful shutdown: requestStop() is async-signal-safe (two atomic
// stores). The accept loop stops admitting connections, the executor
// finishes the in-flight job (legs drain), queued jobs are rejected with an
// error event, reader threads notice within one poll interval, the store
// segment and the NDJSON journal are flushed, and run() returns.
//
// Metrics (PR 7 Prometheus plane, always on):
//   serve.connections, serve.sessions, serve.queue_depth, serve.jobs{op=},
//   serve.jobs_rejected, serve.job_errors, serve.session.jobs{session=} —
//   the per-client fairness counter — plus serve.store.* from LegStore.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/socket.h"
#include "obs/export/journal.h"
#include "obs/export/telemetry.h"
#include "serve/protocol.h"
#include "serve/store.h"

namespace voltcache::serve {

struct ServeOptions {
    std::uint16_t port = 0;            ///< 0 = ephemeral (report via port())
    std::string storeDirectory;        ///< empty = in-memory store only
    std::uint64_t storeBudgetBytes = 256ull << 20;
    unsigned threads = 0;              ///< default sweep workers per job
    std::string journalPath;           ///< empty = no NDJSON leg journal
    /// Rotate the journal when it would exceed this many bytes (the live
    /// file moves to `<path>.1`, replacing the previous generation). 0 =
    /// unbounded.
    std::uint64_t journalMaxBytes = 0;
    /// Crash flight recorder (obs/flight_recorder.h): install a process-wide
    /// recorder dumping to this path on SIGSEGV / SIGABRT / contract
    /// failure, fed from every job's leg events and progress ticks. Empty =
    /// off.
    std::string flightRecordPath;
    /// Close a connection with no request, no queued job, and no running
    /// job for this long (per-connection read deadline).
    std::chrono::milliseconds idleTimeout{600000};
    /// Bound on blocking response writes (SO_SNDTIMEO): a client that
    /// stops reading cannot wedge the executor past this.
    std::chrono::milliseconds sendTimeout{30000};
    /// Optional telemetry mirror: progress ticks from the running job feed
    /// this board (beginJob per job). Must outlive the server.
    obs::ProgressBoard* board = nullptr;
};

class Server {
public:
    /// Binds the listener and opens/loads the store. Throws on bind or
    /// store failure.
    explicit Server(const ServeOptions& options);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }

    /// Serve until requestStop(). Runs the accept loop on the calling
    /// thread; returns after the drain completes and the store is flushed.
    void run();

    /// Async-signal-safe stop: two atomic stores, no locks. Callable from
    /// a SIGINT/SIGTERM handler.
    void requestStop() noexcept;

    [[nodiscard]] LegStore& store() noexcept { return store_; }

    struct Totals {
        std::uint64_t connections = 0;
        std::uint64_t jobsCompleted = 0;
        std::uint64_t jobsRejected = 0;
        std::uint64_t jobErrors = 0;
    };
    [[nodiscard]] Totals totals() const noexcept;

private:
    struct Session {
        std::uint64_t id = 0;
        net::Socket socket;
        std::mutex writeMutex;
        std::deque<JobRequest> queue; ///< guarded by Server::stateMutex_
        std::atomic<bool> open{true};
        std::atomic<bool> busy{false}; ///< executor is running this session's job
        std::thread reader;
    };

    [[nodiscard]] bool stopping() const noexcept {
        return stop_.load(std::memory_order_acquire);
    }

    /// Write `lines`, each followed by '\n', as one send under the session
    /// write lock, so no reply from another thread can land between them.
    /// A failed or timed-out send marks the session closed.
    void writeLines(Session& session, std::initializer_list<std::string_view> lines);
    void writeLine(Session& session, std::string_view line) { writeLines(session, {line}); }

    void sessionLoop(const std::shared_ptr<Session>& session);
    void executorLoop();
    void runJob(Session& session, const JobRequest& request);
    [[nodiscard]] std::string statsEvent();
    [[nodiscard]] std::size_t queueDepthLocked() const;
    void reapSessionsLocked(std::vector<std::thread>& joinable);

    ServeOptions options_;
    net::TcpListener listener_;
    LegStore store_;
    std::optional<obs::LegJournal> journal_;
    std::atomic<bool> stop_{false};

    mutable std::mutex stateMutex_;
    std::condition_variable jobsCv_;
    std::vector<std::shared_ptr<Session>> sessions_;
    std::size_t rrCursor_ = 0; ///< round-robin position over sessions_
    std::uint64_t nextSessionId_ = 1;

    std::atomic<std::uint64_t> connections_{0};
    std::atomic<std::uint64_t> jobsCompleted_{0};
    std::atomic<std::uint64_t> jobsRejected_{0};
    std::atomic<std::uint64_t> jobErrors_{0};
};

} // namespace voltcache::serve
