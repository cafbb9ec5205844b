#include "harness.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "common/json.h"
#include "common/version.h"

// VCBENCH_COMPILER, VCBENCH_BUILD_TYPE, VCBENCH_IPO and VCBENCH_SANITIZE come
// from perfbench/CMakeLists.txt.

namespace vcbench {

double secondsSince(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t nowNs() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
            .count());
}

double processCpuSeconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peakRssMb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

unsigned workloadThreads() {
    const unsigned host = std::max(1u, std::thread::hardware_concurrency());
    return std::min(4u, host);
}

std::uint64_t sweepSeed(std::uint64_t seed) {
    // Below 2^53: the serve protocol carries seeds as JSON numbers (doubles).
    return 0xC0FFEEull + ((seed * 0x9E3779B97F4A7C15ull) >> 12);
}

std::string Fingerprint::refusal() const {
    if (!sanitize.empty()) return "sanitizer build (" + sanitize + ")";
    if (buildType.find("Rel") == std::string::npos) {
        return "unoptimized build type '" + buildType + "'";
    }
#ifndef __OPTIMIZE__
    return "compiled without optimization";
#endif
    return {};
}

Fingerprint hostFingerprint() {
    Fingerprint fp;
    const long online = sysconf(_SC_NPROCESSORS_ONLN);
    fp.nproc = online > 0 ? static_cast<unsigned>(online) : 0;
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                fp.cpuModel = line.substr(line.find_first_not_of(' ', colon + 1));
            }
            break;
        }
    }
    if (fp.cpuModel.empty()) fp.cpuModel = "unknown";
    fp.compiler = VCBENCH_COMPILER;
    fp.buildType = VCBENCH_BUILD_TYPE;
    fp.ipo = VCBENCH_IPO != 0;
    fp.sanitize = VCBENCH_SANITIZE;
    fp.version = std::string(voltcache::buildVersion());
    return fp;
}

SpanLog::Scope::Scope(SpanLog* log, std::string name, std::uint64_t calls) : log_(log) {
    if (log_ == nullptr) return;
    index_ = log_->spans_.size();
    log_->spans_.push_back(SpanRecord{std::move(name), nowNs(), 0, log_->open_, calls});
    log_->open_ = static_cast<std::int64_t>(index_);
}

SpanLog::Scope::~Scope() {
    if (log_ == nullptr) return;
    SpanRecord& span = log_->spans_[index_];
    span.endNs = nowNs();
    log_->open_ = span.parent;
}

std::uint64_t SpanLog::busyNs(std::string_view name) const {
    std::uint64_t total = 0;
    for (const SpanRecord& span : spans_) {
        if (name == span.name) total += span.endNs - span.startNs;
    }
    return total;
}

std::uint64_t SpanLog::calls(std::string_view name) const {
    std::uint64_t total = 0;
    for (const SpanRecord& span : spans_) {
        if (name == span.name) total += span.calls;
    }
    return total;
}

namespace {

void writeFile(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text << '\n';
    if (!out) throw std::runtime_error("cannot write " + path);
}

} // namespace

void SpanLog::write(const std::string& path) const {
    voltcache::JsonWriter json;
    json.beginObject();
    json.member("workload", workload_);
    json.key("spans");
    json.beginArray();
    for (const SpanRecord& span : spans_) {
        json.beginObject();
        json.member("name", span.name);
        json.member("workload", workload_);
        json.member("start_ns", span.startNs);
        json.member("end_ns", span.endNs);
        json.member("parent", span.parent);
        json.member("calls", span.calls);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    writeFile(path, json.str());
}

void Report::scalar(std::string name, double value, std::string unit) {
    scalars_.push_back({std::move(name), value, std::move(unit)});
}

void Report::samples(std::string name, std::vector<double> values, std::string unit,
                     bool latency) {
    samples_.push_back({std::move(name), std::move(values), std::move(unit), latency});
}

void Report::layer(std::string name, double value, std::string unit, std::uint64_t count,
                   std::uint64_t busyNs, std::string moves) {
    layers_.push_back(
        {std::move(name), value, std::move(unit), count, busyNs, std::move(moves)});
}

void Report::check(std::string name, bool ok, std::string detail) {
    ++attempted_;
    if (!ok) ++failed_;
    checks_.push_back({std::move(name), ok, std::move(detail)});
}

void Report::operations(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
}

void Report::write(const Options& options, const Fingerprint& fp) const {
    voltcache::JsonWriter json;
    json.beginObject();
    json.member("workload", options.workload);
    json.member("seed", options.seed);
    json.member("seconds", options.seconds);
    json.member("trace", options.trace);
    json.key("fingerprint");
    json.beginObject();
    json.member("nproc", static_cast<std::uint64_t>(fp.nproc));
    json.member("cpu_model", fp.cpuModel);
    json.member("compiler", fp.compiler);
    json.member("build_type", fp.buildType);
    json.member("ipo", fp.ipo);
    json.member("sanitize", fp.sanitize);
    json.member("version", fp.version);
    json.endObject();
    json.member("attempted", attempted_);
    json.member("failed", failed_);
    json.key("scalars");
    json.beginObject();
    for (const Scalar& s : scalars_) {
        json.key(s.name);
        json.beginObject();
        json.member("value", s.value);
        json.member("unit", s.unit);
        json.endObject();
    }
    json.endObject();
    json.key("samples");
    json.beginObject();
    for (const Samples& s : samples_) {
        json.key(s.name);
        json.beginObject();
        json.member("unit", s.unit);
        json.member("latency", s.latency);
        json.key("values");
        json.beginArray();
        for (const double v : s.values) json.value(v);
        json.endArray();
        json.endObject();
    }
    json.endObject();
    json.key("layers");
    json.beginObject();
    for (const Layer& l : layers_) {
        json.key(l.name);
        json.beginObject();
        json.member("value", l.value);
        json.member("unit", l.unit);
        json.member("count", l.count);
        json.member("busy_ns", l.busyNs);
        json.member("moves", l.moves);
        json.endObject();
    }
    json.endObject();
    json.key("checks");
    json.beginArray();
    for (const Check& c : checks_) {
        json.beginObject();
        json.member("name", c.name);
        json.member("ok", c.ok);
        json.member("detail", c.detail);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    writeFile(options.out, json.str());
}

} // namespace vcbench
