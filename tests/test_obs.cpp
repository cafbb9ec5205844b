// Tests for the observability subsystem: the JSON writer, the metrics
// registry (handles, sharding, histograms), the timeline's event ring and
// Chrome-trace writer, the instrumentation points in the schemes / linker, observer multiplexing,
// the L2-read reconciliation invariant, and the sweep JSON golden file.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "common/contracts.h"
#include "common/json.h"
#include "common/json_parse.h"
#include "compiler/passes.h"
#include "core/report.h"
#include "core/sweep.h"
#include "core/system.h"
#include "linker/linker.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "schemes/bbr.h"
#include "schemes/ffw.h"
#include "workload/locality.h"
#include "workload/workload.h"

namespace voltcache {
namespace {

using voltcache::literals::operator""_mV;

// ---- JsonWriter ----

TEST(JsonWriter, EscapesQuotesBackslashesAndControlChars) {
    JsonWriter json;
    json.value(std::string_view("a\"b\\c\nd\te\x01"
                                "f"));
    EXPECT_EQ(json.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");

    // Keys escape the same way; integers print exactly at their extremes.
    JsonWriter object;
    object.beginObject();
    object.member("k\"e\\y\n", std::numeric_limits<std::int64_t>::min());
    object.member("plain", std::numeric_limits<std::uint64_t>::max());
    object.member("", std::int64_t{0});
    object.endObject();
    EXPECT_EQ(object.str(), "{\"k\\\"e\\\\y\\n\":-9223372036854775808,"
                          "\"plain\":18446744073709551615,\"\":0}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
    JsonWriter json;
    json.beginArray();
    json.value(std::numeric_limits<double>::quiet_NaN());
    json.value(std::numeric_limits<double>::infinity());
    json.value(-std::numeric_limits<double>::infinity());
    json.value(1.5);
    json.endArray();
    EXPECT_EQ(json.str(), "[null,null,null,1.5]");
}

TEST(JsonWriter, NestedObjectsAndArrays) {
    JsonWriter json;
    json.beginObject();
    json.member("name", "x");
    json.key("values");
    json.beginArray();
    json.value(std::uint64_t{1});
    json.value(std::int64_t{-2});
    json.value(true);
    json.null();
    json.endArray();
    json.key("inner");
    json.beginObject();
    json.member("d", 0.25);
    json.endObject();
    json.endObject();
    EXPECT_EQ(json.str(),
              R"({"name":"x","values":[1,-2,true,null],"inner":{"d":0.25}})");
}

TEST(JsonWriter, MisuseTripsContracts) {
    {
        JsonWriter json;
        json.beginObject();
        EXPECT_THROW(json.value(std::uint64_t{1}), ContractViolation) << "value needs a key";
    }
    {
        JsonWriter json;
        EXPECT_THROW((void)json.str(), ContractViolation) << "empty document";
    }
    {
        JsonWriter json;
        json.beginArray();
        EXPECT_THROW((void)json.str(), ContractViolation) << "unclosed scope";
    }
}

// ---- Metrics registry ----

// Counters resolved twice from the same thread share one cell.
TEST(Metrics, CounterHandleAccumulates) {
    obs::MetricsRegistry registry;
    obs::Counter a = registry.counter("c", {{"k", "v"}});
    obs::Counter b = registry.counter("c", {{"k", "v"}});
    a.add();
    b.add(4);
    const auto snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.size(), 1u);
    EXPECT_EQ(snapshot[0].name, "c");
    EXPECT_EQ(snapshot[0].kind, obs::MetricKind::Counter);
    EXPECT_EQ(snapshot[0].count, 5u);
    ASSERT_EQ(snapshot[0].labels.size(), 1u);
    EXPECT_EQ(snapshot[0].labels[0].first, "k");
    EXPECT_EQ(snapshot[0].labels[0].second, "v");
}

TEST(Metrics, PerThreadShardsMergeAtSnapshot) {
    obs::MetricsRegistry registry;
    constexpr int kThreads = 4;
    constexpr int kAdds = 1000;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&registry] {
            obs::Counter counter = registry.counter("threads.count");
            for (int i = 0; i < kAdds; ++i) counter.add();
        });
    }
    for (auto& worker : workers) worker.join();
    const auto snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.size(), 1u);
    EXPECT_EQ(snapshot[0].count, static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(Metrics, ExitedThreadsHandTheirCellsToNewThreads) {
    // A sweep per job starts fresh workers; the registry must not keep a
    // cell per family for every thread that ever ran.
    obs::MetricsRegistry registry;
    constexpr int kThreads = 32;
    std::set<std::uint32_t> slots;
    for (int t = 0; t < kThreads; ++t) {
        std::thread([&registry, &slots] {
            registry.add("sequential.count", {});
            registry.observe("sequential.ns", {}, 100);
            slots.insert(obs::threadSlot());
        }).join();
    }
    EXPECT_EQ(slots.size(), 1u) << "each joined thread's slot passes to the next";
    EXPECT_EQ(registry.cells(), 2u);
    for (const obs::MetricSnapshot& snap : registry.snapshot()) {
        EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads)) << snap.name;
    }
}

TEST(Metrics, HistogramLog2Buckets) {
    EXPECT_EQ(obs::histogramBucket(0), 0u);
    EXPECT_EQ(obs::histogramBucket(1), 1u);
    EXPECT_EQ(obs::histogramBucket(2), 2u);
    EXPECT_EQ(obs::histogramBucket(3), 2u);
    EXPECT_EQ(obs::histogramBucket(4), 3u);
    EXPECT_EQ(obs::histogramBucket(std::numeric_limits<std::uint64_t>::max()), 64u);
    EXPECT_EQ(obs::histogramBucketLow(0), 0u);
    EXPECT_EQ(obs::histogramBucketLow(1), 1u);
    EXPECT_EQ(obs::histogramBucketLow(3), 4u);

    obs::MetricsRegistry registry;
    obs::Histogram histogram = registry.histogram("h");
    for (std::uint64_t v : {0u, 1u, 2u, 3u, 8u}) histogram.observe(v);
    const auto snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.size(), 1u);
    EXPECT_EQ(snapshot[0].kind, obs::MetricKind::Histogram);
    EXPECT_EQ(snapshot[0].count, 5u);
    EXPECT_EQ(snapshot[0].sum, 14u);
    EXPECT_DOUBLE_EQ(snapshot[0].value, 14.0 / 5.0);
    ASSERT_GE(snapshot[0].buckets.size(), 5u);
    EXPECT_EQ(snapshot[0].buckets[0], 1u); // 0
    EXPECT_EQ(snapshot[0].buckets[1], 1u); // 1
    EXPECT_EQ(snapshot[0].buckets[2], 2u); // 2, 3
    EXPECT_EQ(snapshot[0].buckets[3], 0u);
    EXPECT_EQ(snapshot[0].buckets[4], 1u); // 8
}

TEST(Metrics, GaugeLastWriteWins) {
    obs::MetricsRegistry registry;
    obs::Gauge gauge = registry.gauge("g");
    gauge.set(1.0);
    gauge.set(2.5);
    const auto snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.size(), 1u);
    EXPECT_EQ(snapshot[0].kind, obs::MetricKind::Gauge);
    EXPECT_DOUBLE_EQ(snapshot[0].value, 2.5);
}

TEST(Metrics, KindMismatchIsContractViolation) {
    obs::MetricsRegistry registry;
    (void)registry.counter("m");
    EXPECT_THROW((void)registry.gauge("m"), ContractViolation);
    EXPECT_THROW((void)registry.histogram("m"), ContractViolation);
}

TEST(Metrics, InertHandlesAreSafe) {
    obs::Counter counter;
    obs::Gauge gauge;
    obs::Histogram histogram;
    counter.add();
    gauge.set(1.0);
    histogram.observe(42); // must not crash
}

TEST(Metrics, SnapshotRendersAsJson) {
    obs::MetricsRegistry registry;
    registry.add("a.count", {{"scheme", "ffw+bbr"}}, 3);
    const std::string text = obs::metricsToJson(registry.snapshot());
    EXPECT_NE(text.find("\"a.count\""), std::string::npos);
    EXPECT_NE(text.find("\"ffw+bbr\""), std::string::npos);
    EXPECT_NE(text.find("3"), std::string::npos);
}

// ---- The timeline ring and its writer ----

/// Current count of a (label-free) counter in the global registry, or 0.
std::uint64_t globalCounterValue(const char* name) {
    for (const auto& metric : obs::MetricsRegistry::global().snapshot()) {
        if (metric.name == name && metric.labels.empty()) return metric.count;
    }
    return 0;
}

/// Runs `body` as a job whose timeline takes instant events, and returns the
/// job's parsed Chrome trace document.
template <class Body>
JsonValue tracedJob(const char* label, Body&& body) {
    obs::JobTraceStore& store = obs::JobTraceStore::global();
    const obs::TraceContext trace = obs::makeRootContext(label);
    store.beginJob(label, trace, /*instants=*/true);
    body();
    store.endJob(trace);
    const JsonValue doc = parseJson(store.toChromeJson(label));
    store.clear();
    return doc;
}

const std::vector<JsonValue>& traceEvents(const JsonValue& doc) {
    const JsonValue* events = doc.find("traceEvents");
    VC_CHECK(events != nullptr);
    return events->items;
}

/// The events of `doc` named `name`.
std::vector<const JsonValue*> eventsNamed(const JsonValue& doc, std::string_view name) {
    std::vector<const JsonValue*> out;
    for (const JsonValue& event : traceEvents(doc)) {
        if (event.stringOr("name", "") == name) out.push_back(&event);
    }
    return out;
}

TEST(TraceSink, RingOverwritesOldestAndCountsDrops) {
    const std::uint64_t droppedBefore = globalCounterValue("obs.trace_dropped_total");
    obs::EventRing ring(4);
    for (std::int64_t i = 0; i < 6; ++i) {
        obs::TraceEvent event;
        event.argCount = 1;
        event.point.name = "event";
        event.point.category = "test";
        event.point.args[0] = {"i", i};
        ring.push(event);
    }
    EXPECT_EQ(ring.recorded(), 6u);
    EXPECT_EQ(ring.oldest(ring.recorded()), 2u);
    // Drops are mirrored into the process-wide registry so a truncated trace
    // is detectable without the ring in hand.
    EXPECT_EQ(globalCounterValue("obs.trace_dropped_total"), droppedBefore + 2);
    obs::TraceEvent event;
    EXPECT_FALSE(ring.read(0, event)) << "overwritten";
    EXPECT_FALSE(ring.read(1, event)) << "overwritten";
    EXPECT_FALSE(ring.read(6, event)) << "not recorded yet";
    for (std::uint64_t k = 2; k < 6; ++k) {
        ASSERT_TRUE(ring.read(k, event));
        ASSERT_EQ(event.argCount, 1u);
        EXPECT_STREQ(event.point.args[0].key, "i");
        EXPECT_EQ(event.point.args[0].value, static_cast<std::int64_t>(k))
            << "oldest-first, first two overwritten";
    }
}

TEST(TraceSink, ChromeJsonIsWellFormed) {
    const JsonValue doc = tracedJob("well-formed", [] {
        obs::traceInstant("alpha", "catA", {{"x", 1}});
        obs::traceInstant("beta", "catB");
    });
    EXPECT_EQ(doc.stringOr("kind", ""), "trace");
    EXPECT_EQ(doc.stringOr("job", ""), "well-formed");
    EXPECT_EQ(doc.numberOr("spanCount", 0.0), 2.0);
    EXPECT_EQ(doc.numberOr("droppedSpans", -1.0), 0.0);
    const auto alpha = eventsNamed(doc, "alpha");
    ASSERT_EQ(alpha.size(), 1u);
    EXPECT_EQ(alpha[0]->stringOr("cat", ""), "catA");
    EXPECT_EQ(alpha[0]->stringOr("ph", ""), "i");
    EXPECT_EQ(alpha[0]->find("args")->numberOr("x", 0.0), 1.0);
    EXPECT_EQ(eventsNamed(doc, "beta").size(), 1u);
}

TEST(TraceSink, SpanEventsExportAsCompleteDurations) {
    // Both spans start after the job opened (the stamp is taken inside the
    // job), so neither clamps to t=0.
    const JsonValue doc = tracedJob("spans", [] {
        const std::uint64_t start = obs::steadyNowNs() + 1'000'000;
        obs::traceSpan("phase", "prof", start, 5000, {{"leg", 3}});
        obs::traceSpan("later", "prof", start + 2000, 1000);
    });
    const auto phase = eventsNamed(doc, "phase");
    const auto later = eventsNamed(doc, "later");
    ASSERT_EQ(phase.size(), 1u);
    ASSERT_EQ(later.size(), 1u);
    EXPECT_EQ(phase[0]->stringOr("ph", ""), "X");
    EXPECT_EQ(phase[0]->numberOr("dur", 0.0), 5.0); // µs
    EXPECT_NEAR(later[0]->numberOr("ts", 0.0) - phase[0]->numberOr("ts", 0.0), 2.0, 1e-6);
    const JsonValue* args = phase[0]->find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->numberOr("leg", 0.0), 3.0);
    EXPECT_EQ(args->stringOr("parent", "").size(), 16u) << "spans hang off the job's root span";
}

TEST(TraceSink, SpanStartBeforeSinkClampsToEpoch) {
    const JsonValue doc = tracedJob("early", [] { obs::traceSpan("early", "prof", 0, 7000); });
    const auto early = eventsNamed(doc, "early");
    ASSERT_EQ(early.size(), 1u);
    EXPECT_EQ(early[0]->numberOr("ts", -1.0), 0.0) << "pre-epoch start clamps to the trace's t=0";
    EXPECT_EQ(early[0]->numberOr("dur", 0.0), 7.0);
}

TEST(TraceSink, CounterEventsExportSeriesArgs) {
    const JsonValue doc = tracedJob("counters", [] {
        obs::traceCounter("sweep.workers", "sweep", {{"active", 3}, {"total", 4}});
    });
    const auto counters = eventsNamed(doc, "sweep.workers");
    ASSERT_EQ(counters.size(), 1u);
    EXPECT_EQ(counters[0]->stringOr("ph", ""), "C");
    const JsonValue* args = counters[0]->find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->numberOr("active", 0.0), 3.0);
    EXPECT_EQ(args->numberOr("total", 0.0), 4.0);
}

// The newest open job is the current one: a nested job takes the events
// while it is open, and closing it hands them back to the enclosing job.
TEST(TraceSink, ScopedAttachRestoresPrevious) {
    obs::JobTraceStore& store = obs::JobTraceStore::global();
    store.clear();
    EXPECT_FALSE(obs::instantEventsOn());
    const obs::TraceContext outer = obs::makeRootContext("outer");
    const obs::TraceContext inner = obs::makeRootContext("inner");
    store.beginJob("outer", outer, /*instants=*/true);
    obs::traceInstant("outer.before", "test");
    store.beginJob("inner", inner, /*instants=*/false);
    EXPECT_TRUE(obs::JobTraceStore::collecting());
    EXPECT_FALSE(obs::instantEventsOn()) << "the inner job takes no instant events";
    obs::traceCounter("inner.counter", "test", {{"n", 1}});
    store.endJob(inner);
    EXPECT_TRUE(obs::instantEventsOn());
    obs::traceInstant("outer.after", "test");
    store.endJob(outer);
    EXPECT_FALSE(obs::JobTraceStore::collecting());
    obs::traceInstant("nobody", "test");

    const JsonValue outerDoc = parseJson(store.toChromeJson("outer"));
    const JsonValue innerDoc = parseJson(store.toChromeJson("inner"));
    ASSERT_EQ(traceEvents(outerDoc).size(), 2u);
    EXPECT_EQ(eventsNamed(outerDoc, "outer.before").size(), 1u);
    EXPECT_EQ(eventsNamed(outerDoc, "outer.after").size(), 1u);
    ASSERT_EQ(traceEvents(innerDoc).size(), 1u);
    EXPECT_EQ(eventsNamed(innerDoc, "inner.counter").size(), 1u);
    store.clear();
}

// ---- Instrumentation points ----

TEST(Instrumentation, FfwRecenterEmitsEventWithWindowBounds) {
    const JsonValue doc = tracedJob("ffw", [] {
        L2Cache l2;
        FaultMap map(1024, 8);
        map.setFaulty(0, 2); // Fig. 4 frame: window = words 2..6
        map.setFaulty(0, 4);
        map.setFaulty(0, 6);
        FfwDCache dcache(CacheOrganization{}, map, l2);
        (void)dcache.read(0 * 32 + 4 * 4); // fill centered on word 4
        (void)dcache.read(0 * 32 + 0 * 4); // word 0 is outside the window: recenter
    });
    const auto recenters = eventsNamed(doc, "ffw.recenter");
    ASSERT_FALSE(recenters.empty());
    for (const JsonValue* event : recenters) {
        EXPECT_EQ(event->stringOr("cat", ""), "dcache");
        const JsonValue* args = event->find("args");
        ASSERT_NE(args, nullptr);
        EXPECT_NE(args->find("old_start"), nullptr);
        EXPECT_NE(args->find("new_start"), nullptr);
    }
}

TEST(Instrumentation, BbrFetchMissEmitsEvent) {
    const JsonValue doc = tracedJob("bbr", [] {
        L2Cache l2;
        BbrICache icache(CacheOrganization{}, FaultMap(1024, 8), l2);
        (void)icache.fetch(0); // cold miss
    });
    EXPECT_FALSE(eventsNamed(doc, "bbr.fetch_miss").empty());
}

TEST(Instrumentation, LinkerCountsScansAndEmitsPlacementEvents) {
    std::uint32_t blocksPlaced = 0;
    const JsonValue doc = tracedJob("link", [&blocksPlaced] {
        Module module = buildBenchmark("crc32", WorkloadScale::Tiny);
        applyBbrTransforms(module);
        const FaultMapGenerator generator;
        Rng rng(7);
        const FaultMap map = generator.generate(rng, 400_mV, 1024, 8);
        LinkOptions options;
        options.bbrPlacement = true;
        options.icacheFaultMap = &map;
        blocksPlaced = link(module, options).stats.blocksPlaced;
    });
    EXPECT_GT(blocksPlaced, 0u);
    // At 400mV most frames hold defects, so the first-fit scan restarts at
    // least occasionally; the counters must be consistent with placement.
    EXPECT_FALSE(eventsNamed(doc, "link.place").empty());
}

// ---- Observer multiplexing ----

class CountingObserver final : public TraceObserver {
public:
    void onInstruction(std::uint32_t, const Instruction&) override { ++instructions_; }
    void onDataAccess(std::uint32_t, bool) override { ++accesses_; }
    [[nodiscard]] std::uint64_t instructions() const { return instructions_; }
    [[nodiscard]] std::uint64_t accesses() const { return accesses_; }

private:
    std::uint64_t instructions_ = 0;
    std::uint64_t accesses_ = 0;
};

TEST(Multiplexer, MultipleObserversSeeTheSameRun) {
    const Module module = buildBenchmark("crc32", WorkloadScale::Tiny);
    Module bbrModule = module;
    applyBbrTransforms(bbrModule);

    LocalityProfiler profiler;
    CountingObserver counting;
    SystemConfig config;
    config.scheme = SchemeKind::FfwBbr;
    config.op = DvfsTable::at(400_mV);
    config.faultMapSeed = 3;
    config.observers = {&profiler, &counting};
    const SystemResult result = simulateSystem(module, &bbrModule, config);
    ASSERT_FALSE(result.linkFailed);
    profiler.finalize();

    EXPECT_EQ(counting.instructions(), result.run.instructions);
    EXPECT_GT(counting.accesses(), 0u);
    EXPECT_GT(profiler.meanSpatialLocality(), 0.0);
}

// ---- L2-read reconciliation (the accounting invariant in simulateSystem) ----

TEST(Reconciliation, L1L2ReadAccountingBalancesAcrossSchemes) {
    const Module module = buildBenchmark("crc32", WorkloadScale::Tiny);
    Module bbrModule = module;
    applyBbrTransforms(bbrModule);
    for (const SchemeKind scheme :
         {SchemeKind::Conventional760, SchemeKind::SimpleWordDisable, SchemeKind::FbaPlus,
          SchemeKind::IdcPlus, SchemeKind::FfwBbr}) {
        SystemConfig config;
        config.scheme = scheme;
        config.op = scheme == SchemeKind::Conventional760 ? DvfsTable::vccminBaseline()
                                                          : DvfsTable::at(400_mV);
        config.faultMapSeed = 11;
        // simulateSystem VC_CHECKs the invariant internally; assert it here
        // too so a regression names the scheme.
        const SystemResult result = simulateSystem(module, &bbrModule, config);
        if (result.linkFailed) continue;
        EXPECT_EQ(result.icacheStats.l2Reads + result.dcacheStats.l2Reads,
                  result.run.activity.l2Accesses)
            << "scheme " << schemeName(scheme);
    }
}

// ---- Sweep progress callback ----

TEST(Sweep, ProgressCallbackFiresPerBenchmark) {
    SweepConfig config;
    config.benchmarks = {"crc32"};
    config.schemes = {SchemeKind::FfwBbr};
    config.points = {DvfsTable::at(400_mV)};
    config.trials = 1;
    config.scale = WorkloadScale::Tiny;
    std::vector<SweepProgress> ticks;
    config.onProgress = [&ticks](const SweepProgress& tick) { ticks.push_back(tick); };
    (void)runSweep(config);
    ASSERT_EQ(ticks.size(), 1u);
    EXPECT_EQ(ticks[0].benchmarksCompleted, 1u);
    EXPECT_EQ(ticks[0].benchmarksTotal, 1u);
    EXPECT_EQ(ticks[0].benchmark, "crc32");
}

// ---- Golden-file export ----

/// Deterministic hand-built sweep result (no simulation, so the golden file
/// only changes when the export format changes).
SweepResult goldenSweepResult() {
    SweepResult result;
    SweepCell& cell = result.cells[{SchemeKind::FfwBbr, 400}];
    for (double x : {1.0, 1.25, 1.5}) cell.normRuntime.add(x);
    for (double x : {10.0, 12.0, 14.0}) cell.l2PerKilo.add(x);
    for (double x : {0.5, 0.375, 0.25}) cell.normEpi.add(x);
    for (double x : {0.5, 0.5, 0.5}) cell.busyFrac.add(x);
    for (double x : {0.25, 0.25, 0.25}) cell.ifetchFrac.add(x);
    for (double x : {0.125, 0.125, 0.125}) cell.dmemFrac.add(x);
    for (double x : {0.125, 0.125, 0.125}) cell.branchFrac.add(x);
    cell.runs = 3;
    cell.linkFailures = 1;
    result.perBenchmark[{"crc32", SchemeKind::FfwBbr, 400}] = cell;
    return result;
}

TEST(Report, SweepJsonMatchesGoldenFile) {
    SweepExportMeta meta;
    meta.version = "test"; // fixed: the golden must not depend on git state
    meta.seed = 42;
    meta.trials = 3;
    meta.scale = "tiny";
    meta.benchmarks = {"crc32"};
    const std::string json = sweepResultToJson(goldenSweepResult(), meta);

    const std::string path = std::string(VOLTCACHE_TEST_GOLDEN_DIR) + "/sweep_small.json";
    if (std::getenv("VOLTCACHE_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << json << "\n";
        GTEST_SKIP() << "golden file regenerated at " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (regenerate with VOLTCACHE_UPDATE_GOLDEN=1)";
    std::ostringstream text;
    text << in.rdbuf();
    std::string expected = text.str();
    if (!expected.empty() && expected.back() == '\n') expected.pop_back();
    EXPECT_EQ(json, expected);
}

} // namespace
} // namespace voltcache
