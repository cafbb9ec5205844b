#include "obs/sampler.h"

#include <utility>

#include "common/contracts.h"
#include "obs/trace.h"

namespace voltcache::obs {

UtilizationSampler::UtilizationSampler(Probe probe, std::chrono::milliseconds period)
    : probe_(std::move(probe)),
      period_(period),
      activeGauge_(MetricsRegistry::global().gauge("sweep.workers_active")),
      queueGauge_(MetricsRegistry::global().gauge("sweep.queue_depth")),
      activeHist_(MetricsRegistry::global().histogram("sweep.active_workers")) {
    VC_EXPECTS(probe_ != nullptr);
    VC_EXPECTS(period_.count() > 0);
    emitSample();
    thread_ = std::thread([this] { run(); });
}

UtilizationSampler::~UtilizationSampler() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_one();
    thread_.join();
    emitSample(); // final state: zero active workers, empty queue
}

void UtilizationSampler::emitSample() {
    const Sample sample = probe_();
    activeGauge_.set(static_cast<double>(sample.activeWorkers));
    queueGauge_.set(static_cast<double>(sample.queueDepth));
    activeHist_.observe(sample.activeWorkers);
    traceCounter("sweep.workers_active", "sampler",
                 {{"active", static_cast<std::int64_t>(sample.activeWorkers)},
                  {"workers", static_cast<std::int64_t>(sample.workers)}});
    traceCounter("sweep.queue_depth", "sampler",
                 {{"legs_pending", static_cast<std::int64_t>(sample.queueDepth)}});
    samples_.fetch_add(1, std::memory_order_relaxed);
}

void UtilizationSampler::run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
        if (wake_.wait_for(lock, period_, [this] { return stop_; })) break;
        lock.unlock();
        emitSample();
        lock.lock();
    }
}

} // namespace voltcache::obs
