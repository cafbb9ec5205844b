// Shared plumbing of the voltcache benchmark: run options, host and process
// clocks, the host fingerprint, the in-memory span log of the traced run,
// and the Report one run hands to perfbench/run.py.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vcbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double secondsSince(Clock::time_point start);
[[nodiscard]] std::uint64_t nowNs();
/// Process CPU time (user + sys, all threads) in seconds.
[[nodiscard]] double processCpuSeconds();
/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peakRssMb();

/// Keep a computed value observable so the optimizer cannot drop the work
/// that produced it.
template <class T>
void keep(const T& value) {
    asm volatile("" : : "m"(value) : "memory");
}

/// Worker threads a workload may use: at most four, at most the host's.
[[nodiscard]] unsigned workloadThreads();

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string out;   ///< path of the result file run.py reduces
    std::string spans; ///< traced run: where the span log goes
};

/// The seed runSweep receives for workload seed `seed`. Seed 0 maps to the
/// repository's default sweep seed, which the pinned digests are taken at.
/// Every result stays below 2^53, so a seed survives a JSON round trip.
[[nodiscard]] std::uint64_t sweepSeed(std::uint64_t seed);

struct Fingerprint {
    unsigned nproc = 0;
    std::string cpuModel;
    std::string compiler;
    std::string buildType;
    bool ipo = false;
    std::string sanitize;
    std::string version; ///< git describe of the measured tree, or "unknown"

    /// Empty when timings from this build may be reported; otherwise why not
    /// (Debug / unoptimized or sanitizer builds).
    [[nodiscard]] std::string refusal() const;
};

[[nodiscard]] Fingerprint hostFingerprint();

/// One timed call into a layer: the traced run keeps them in memory and
/// writes them out at exit. A fine-grained entry point (one cache access,
/// one store lookup) is timed as one span over a stream of `calls` calls.
struct SpanRecord {
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::int64_t parent = -1; ///< index of the enclosing span, -1 at the root
    std::uint64_t calls = 1;
};

class SpanLog {
public:
    explicit SpanLog(std::string workload) : workload_(std::move(workload)) {}

    /// RAII span on the calling thread's stack of open spans (the log is
    /// single-threaded: the traced run calls layers from one thread).
    class Scope {
    public:
        Scope(SpanLog* log, std::string name, std::uint64_t calls = 1);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        SpanLog* log_;
        std::size_t index_ = 0;
    };

    /// Summed span durations under `name`, and the summed call counts.
    [[nodiscard]] std::uint64_t busyNs(std::string_view name) const;
    [[nodiscard]] std::uint64_t calls(std::string_view name) const;

    /// {"workload":..., "spans":[{"name","workload","start_ns","end_ns",
    /// "parent","calls"}]}
    void write(const std::string& path) const;

private:
    std::string workload_;
    std::vector<SpanRecord> spans_;
    std::int64_t open_ = -1;
};

/// What one run reports. Scalars pass through; sample lists are reduced by
/// run.py (medians, percentiles with a sample-count floor).
class Report {
public:
    void scalar(std::string name, double value, std::string unit);
    /// Per-unit samples. run.py reports their median under `name`; latency
    /// samples instead become `<name>_p50_<unit>` plus the highest of p90 /
    /// p99 that has at least ten samples beyond it.
    void samples(std::string name, std::vector<double> values, std::string unit,
                 bool latency = false);
    /// A per-layer metric of the traced run: its value, the call count and
    /// busy time it was derived from, and the end-to-end metric and workload
    /// it should move.
    void layer(std::string name, double value, std::string unit, std::uint64_t count,
               std::uint64_t busyNs, std::string moves);
    /// One output check; a failed check counts as a failed operation.
    void check(std::string name, bool ok, std::string detail = {});
    /// Operations the workload attempted (sweeps, serve jobs), and failures
    /// among them (error events, rejections, timeouts).
    void operations(std::uint64_t attempted, std::uint64_t failed);

    void write(const Options& options, const Fingerprint& fingerprint) const;

private:
    struct Scalar {
        std::string name;
        double value;
        std::string unit;
    };
    struct Samples {
        std::string name;
        std::vector<double> values;
        std::string unit;
        bool latency;
    };
    struct Layer {
        std::string name;
        double value;
        std::string unit;
        std::uint64_t count;
        std::uint64_t busyNs;
        std::string moves;
    };
    struct Check {
        std::string name;
        bool ok;
        std::string detail;
    };
    std::vector<Scalar> scalars_;
    std::vector<Samples> samples_;
    std::vector<Layer> layers_;
    std::vector<Check> checks_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/// The traced run (layers.cpp): per-layer metrics for `options.workload`.
void runTraced(const Options& options, Report& report);

} // namespace vcbench
