// The benchmark's workloads and the pieces the traced run reuses: the sweep
// grids, the canonical sweep JSON the output checks compare, the serve_mix
// jobs, and a client of an in-process `serve::Server`.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep.h"
#include "harness.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace vcbench {

/// Whether `workload` names one of the runSweep workloads.
[[nodiscard]] bool isSweepWorkload(const std::string& workload);

/// The grid of `sweep_small` / `ffwbbr_deep` at workload seed `seed`.
[[nodiscard]] voltcache::SweepConfig sweepConfigFor(const std::string& workload,
                                                    std::uint64_t seed);

/// The sweep export with a fixed version string, so its digest does not
/// depend on how the tree was checked out.
[[nodiscard]] std::string canonicalJson(const voltcache::SweepResult& result,
                                        const voltcache::SweepConfig& config);

/// The serve_mix job definitions at workload seed `seed`.
[[nodiscard]] voltcache::serve::JobRequest primeJob(std::uint64_t seed, unsigned threads);
[[nodiscard]] voltcache::serve::JobRequest missJob(std::uint64_t seed, unsigned threads,
                                                   std::uint64_t index);

/// The document a server frames for `job`, computed by a direct runSweep.
[[nodiscard]] std::string directDocument(const voltcache::serve::JobRequest& job,
                                         voltcache::SweepResult* resultOut = nullptr);

/// An in-process server on an ephemeral loopback port with one client
/// connection. Construction returns once the server answered a ping.
class ServeClient {
public:
    explicit ServeClient(unsigned threads);
    ~ServeClient();
    ServeClient(const ServeClient&) = delete;
    ServeClient& operator=(const ServeClient&) = delete;

    struct Reply {
        bool ok = false;           ///< a result event and a framed document arrived
        std::string error;         ///< error event, rejection or timeout otherwise
        std::string document;
        double latencyMs = 0.0;    ///< send to the last byte of the document
        double serverElapsedMs = 0.0;
        std::uint64_t legs = 0;
        std::uint64_t storeHits = 0;
        std::uint64_t storeMisses = 0;
    };
    [[nodiscard]] Reply submit(const voltcache::serve::JobRequest& job);

private:
    std::unique_ptr<voltcache::serve::Server> server_;
    std::exception_ptr serverError_;
    std::thread serverThread_;
    voltcache::net::Socket socket_;
    std::optional<voltcache::serve::LineReader> reader_;
};

void runSweepWorkload(const Options& options, Report& report);
void runServeWorkload(const Options& options, Report& report);

} // namespace vcbench
