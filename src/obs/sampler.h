// Worker-utilization / queue-depth sampler for the sweep's leg executor.
//
// A background thread periodically invokes a caller-supplied probe (reading
// the executor's atomics) and publishes each sample three ways: gauges in
// the metrics registry ("sweep.workers_active", "sweep.queue_depth"), a
// log2 histogram of the active-worker count ("sweep.active_workers", whose
// mean estimates utilization over the run), and — while a job is open —
// "ph":"C" counter events in the current job's timeline (obs/trace.h), so
// Perfetto draws the worker occupancy and backlog as counter tracks under
// the span timeline.
//
// One sample is taken synchronously on construction and one on destruction,
// so even a sweep shorter than the period leaves counters in the trace. The
// sampler only ever *reads* executor state; attaching it cannot perturb the
// sweep's results. The sweep starts one only when profiling is on or the
// current job takes instant events, never just because a job is traced:
// every serve job is traced, and each sampler is one more thread.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "obs/metrics.h"

namespace voltcache::obs {

class UtilizationSampler {
public:
    struct Sample {
        std::uint64_t activeWorkers = 0; ///< workers currently inside a leg
        std::uint64_t workers = 0;       ///< size of the worker pool
        std::uint64_t queueDepth = 0;    ///< legs not yet started
    };
    using Probe = std::function<Sample()>;

    explicit UtilizationSampler(Probe probe,
                                std::chrono::milliseconds period = std::chrono::milliseconds(20));
    ~UtilizationSampler();
    UtilizationSampler(const UtilizationSampler&) = delete;
    UtilizationSampler& operator=(const UtilizationSampler&) = delete;

    /// Samples taken so far (including the construction-time one).
    [[nodiscard]] std::uint64_t samples() const noexcept {
        return samples_.load(std::memory_order_relaxed);
    }

private:
    void emitSample();
    void run();

    Probe probe_;
    const std::chrono::milliseconds period_;
    Gauge activeGauge_;
    Gauge queueGauge_;
    Histogram activeHist_;
    std::atomic<std::uint64_t> samples_{0};
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::thread thread_;
};

} // namespace voltcache::obs
