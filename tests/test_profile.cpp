// Tests for the sweep self-profiler and forensics: obs::Span nesting and
// self/total attribution (single- and cross-thread), the zero-cost disabled
// path, the minimal JSON parser backing bench_check / the profile command,
// per-cell forensic harvesting from a real tiny sweep, profile-export golden
// file, and byte-identical sweep JSON with profiling enabled.
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "common/json_parse.h"
#include "core/forensics.h"
#include "core/report.h"
#include "core/sweep.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace voltcache {
namespace {

using voltcache::literals::operator""_mV;

/// Spin long enough for steady_clock to advance (span totals must be > 0).
void busyWork() {
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 20000; ++i) sink = sink + static_cast<std::uint64_t>(i) * i;
}

const obs::SpanStat* findSpan(const std::vector<obs::SpanStat>& stats,
                              const char* name) {
    for (const auto& stat : stats) {
        if (stat.name == name) return &stat;
    }
    return nullptr;
}

/// RAII: leave the global profiler disabled and empty however the test exits.
struct ProfilerGuard {
    ProfilerGuard() { obs::Profiler::reset(); }
    ~ProfilerGuard() {
        obs::Profiler::setEnabled(false);
        obs::Profiler::reset();
    }
};

// ---- Span nesting ----

TEST(Span, NestedSpansPartitionParentSelfTime) {
    ProfilerGuard guard;
    obs::Profiler::setEnabled(true);
    {
        const obs::Span outer("outer");
        busyWork();
        {
            const obs::Span inner("inner");
            busyWork();
        }
        busyWork();
    }
    obs::Profiler::setEnabled(false);
    const auto stats = obs::Profiler::snapshot();
    const obs::SpanStat* outer = findSpan(stats, "outer");
    const obs::SpanStat* inner = findSpan(stats, "inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->count, 1u);
    EXPECT_EQ(inner->count, 1u);
    EXPECT_GT(inner->totalNs, 0u);
    EXPECT_GE(outer->totalNs, inner->totalNs);
    // A leaf's self time is its total; a parent's self time is its total
    // minus the closed children's totals — exactly, not approximately.
    EXPECT_EQ(inner->selfNs, inner->totalNs);
    EXPECT_EQ(outer->selfNs, outer->totalNs - inner->totalNs);
}

TEST(Span, CrossThreadSpansNestPerThread) {
    ProfilerGuard guard;
    obs::Profiler::setEnabled(true);
    {
        const obs::Span root("root");
        std::vector<std::thread> workers;
        for (int t = 0; t < 2; ++t) {
            workers.emplace_back([] {
                const obs::Span worker("worker");
                busyWork();
                const obs::Span task("task");
                busyWork();
            });
        }
        for (auto& worker : workers) worker.join();
    }
    obs::Profiler::setEnabled(false);
    const auto stats = obs::Profiler::snapshot();
    const obs::SpanStat* root = findSpan(stats, "root");
    const obs::SpanStat* worker = findSpan(stats, "worker");
    const obs::SpanStat* task = findSpan(stats, "task");
    ASSERT_NE(root, nullptr);
    ASSERT_NE(worker, nullptr);
    ASSERT_NE(task, nullptr);
    EXPECT_EQ(root->count, 1u);
    EXPECT_EQ(worker->count, 2u);
    EXPECT_EQ(task->count, 2u);
    // Each task nests inside its own thread's worker span...
    EXPECT_EQ(worker->selfNs, worker->totalNs - task->totalNs);
    // ...but worker threads are NOT children of the main thread's root span:
    // the span stack is per-thread, so root keeps all of its own time.
    EXPECT_EQ(root->selfNs, root->totalNs);
}

// Every sweep phase and serve job starts fresh workers: a joined thread's
// totals must survive it, and its registry cells pass to the next thread.
TEST(Span, ExitedThreadsKeepTheirTotals) {
    ProfilerGuard guard;
    obs::Profiler::setEnabled(true);
    const std::size_t cellsBefore = obs::MetricsRegistry::global().cells();
    constexpr std::uint64_t kThreads = 32;
    for (std::uint64_t t = 0; t < kThreads; ++t) {
        std::thread([] {
            const obs::Span span("churn");
            busyWork();
        }).join();
    }
    obs::Profiler::setEnabled(false);
    const auto stats = obs::Profiler::snapshot();
    const obs::SpanStat* churn = findSpan(stats, "churn");
    ASSERT_NE(churn, nullptr);
    EXPECT_EQ(churn->count, kThreads);
    EXPECT_GT(churn->totalNs, 0u);
    EXPECT_EQ(churn->selfNs, churn->totalNs);
    // One "prof.span_ns" histogram cell and one "prof.span_self_ns" counter
    // cell for the span name, however many threads closed it.
    EXPECT_LE(obs::MetricsRegistry::global().cells(), cellsBefore + 2);
}

TEST(Span, DisabledSpansRecordNothing) {
    ProfilerGuard guard;
    ASSERT_FALSE(obs::Profiler::enabled());
    {
        const obs::Span span("never");
        busyWork();
    }
    EXPECT_TRUE(obs::Profiler::snapshot().empty());
}

TEST(Span, SnapshotIsNameSorted) {
    ProfilerGuard guard;
    obs::Profiler::setEnabled(true);
    { const obs::Span span("zebra"); }
    { const obs::Span span("alpha"); }
    { const obs::Span span("mid"); }
    obs::Profiler::setEnabled(false);
    const auto stats = obs::Profiler::snapshot();
    ASSERT_EQ(stats.size(), 3u);
    EXPECT_EQ(stats[0].name, "alpha");
    EXPECT_EQ(stats[1].name, "mid");
    EXPECT_EQ(stats[2].name, "zebra");
}

// ---- JSON parser ----

TEST(JsonParse, ParsesNestedDocument) {
    const JsonValue doc = parseJson(
        R"({"name":"x","n":-2.5e2,"flag":true,"none":null,)"
        R"("list":[1,2,3],"inner":{"d":0.25}})");
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.stringOr("name", ""), "x");
    EXPECT_DOUBLE_EQ(doc.numberOr("n", 0.0), -250.0);
    const JsonValue* flag = doc.find("flag");
    ASSERT_NE(flag, nullptr);
    EXPECT_TRUE(flag->asBool());
    const JsonValue* none = doc.find("none");
    ASSERT_NE(none, nullptr);
    EXPECT_TRUE(none->isNull());
    const JsonValue* list = doc.find("list");
    ASSERT_NE(list, nullptr);
    ASSERT_TRUE(list->isArray());
    ASSERT_EQ(list->items.size(), 3u);
    EXPECT_DOUBLE_EQ(list->items[1].asNumber(), 2.0);
    const JsonValue* inner = doc.find("inner");
    ASSERT_NE(inner, nullptr);
    EXPECT_DOUBLE_EQ(inner->numberOr("d", 0.0), 0.25);
    EXPECT_EQ(doc.find("missing"), nullptr);
    EXPECT_DOUBLE_EQ(doc.numberOr("missing", 7.0), 7.0);
}

TEST(JsonParse, DecodesEscapesAndUnicode) {
    const JsonValue doc = parseJson(R"(["a\"b\\c\n\t", "\u00e9", "\ud83d\ude00"])");
    ASSERT_TRUE(doc.isArray());
    ASSERT_EQ(doc.items.size(), 3u);
    EXPECT_EQ(doc.items[0].asString(), "a\"b\\c\n\t");
    EXPECT_EQ(doc.items[1].asString(), "\xC3\xA9");             // é as UTF-8
    EXPECT_EQ(doc.items[2].asString(), "\xF0\x9F\x98\x80");     // surrogate pair
}

TEST(JsonParse, RejectsMalformedInput) {
    EXPECT_THROW((void)parseJson(""), JsonParseError);
    EXPECT_THROW((void)parseJson("{\"a\":1} trailing"), JsonParseError);
    EXPECT_THROW((void)parseJson("\"unterminated"), JsonParseError);
    EXPECT_THROW((void)parseJson("tru"), JsonParseError);
    EXPECT_THROW((void)parseJson("{\"a\" 1}"), JsonParseError);
    EXPECT_THROW((void)parseJson("[1,]"), JsonParseError);
    EXPECT_THROW((void)parseJson("\"\\ud83d\""), JsonParseError) << "lone surrogate";
    EXPECT_THROW((void)parseJson(std::string(200, '[')), JsonParseError) << "depth bound";
}

TEST(JsonParse, TypeMismatchThrows) {
    const JsonValue doc = parseJson(R"({"s":"x","n":1})");
    EXPECT_THROW((void)doc.find("s")->asNumber(), JsonParseError);
    EXPECT_THROW((void)doc.find("n")->asString(), JsonParseError);
    EXPECT_THROW((void)doc.find("n")->asBool(), JsonParseError);
}

// ---- Forensics from a real sweep ----

TEST(Forensics, TinySweepAt400mVHarvestsDistributions) {
    SweepConfig config;
    config.benchmarks = {"crc32"};
    config.schemes = {SchemeKind::FfwBbr};
    config.points = {DvfsTable::at(400_mV)};
    config.trials = 2;
    config.scale = WorkloadScale::Tiny;
    config.threads = 1;
    const SweepResult result = runSweep(config);

    const auto it = result.forensics.find({SchemeKind::FfwBbr, 400});
    ASSERT_NE(it, result.forensics.end()) << "no forensics cell for ffw+bbr@400mV";
    const CellForensics& cell = it->second;
    EXPECT_EQ(cell.legs, 2u);
    EXPECT_GT(cell.ffwLegs, 0u);
    EXPECT_GT(cell.bbrLegs, 0u);

    std::uint64_t windowLines = 0;
    for (const std::uint64_t count : cell.ffwWindowSize) windowLines += count;
    // Every D-cache line contributes one window-size sample per FFW leg.
    EXPECT_GT(windowLines, 0u);
    // At 400mV nearly every line holds a defect, so recentering happens.
    EXPECT_GT(cell.ffwRecenters, 0u);

    std::uint64_t chunks = 0;
    for (const std::uint64_t count : cell.bbrChunkWords) chunks += count;
    EXPECT_GT(chunks, 0u);
    std::uint64_t placements = 0;
    for (const std::uint64_t count : cell.bbrDisplacement) placements += count;
    EXPECT_GT(cell.bbrBlocksPlaced, 0u);
    EXPECT_EQ(placements, cell.bbrBlocksPlaced)
        << "each placed block contributes exactly one displacement sample";

    // The forensics block must survive into the JSON export.
    SweepExportMeta meta;
    meta.version = "test";
    const std::string json = sweepResultToJson(result, meta);
    EXPECT_NE(json.find("\"forensics\""), std::string::npos);
    EXPECT_NE(json.find("\"windowWords\""), std::string::npos);
    EXPECT_NE(json.find("\"chunkWords\""), std::string::npos);
}

TEST(Forensics, Log2BucketsRoundTrip) {
    EXPECT_EQ(forensicsLog2Bucket(0), 0u);
    EXPECT_EQ(forensicsLog2Bucket(1), 1u);
    EXPECT_EQ(forensicsLog2Bucket(2), 2u);
    EXPECT_EQ(forensicsLog2Bucket(3), 2u);
    EXPECT_EQ(forensicsLog2Bucket(4), 3u);
    EXPECT_EQ(forensicsLog2Bucket(std::uint64_t{1} << 40), kForensicsLog2Buckets - 1);
    EXPECT_EQ(forensicsLog2BucketLow(0), 0u);
    EXPECT_EQ(forensicsLog2BucketLow(1), 1u);
    EXPECT_EQ(forensicsLog2BucketLow(4), 8u);
}

TEST(Forensics, AccumulateRespectsPresenceFlags) {
    LegForensics leg;
    leg.hasFfw = true;
    leg.ffwWindowSize[4] = 10;
    leg.ffwRecenters = 3;
    leg.failCause = LinkFailCause::None;
    CellForensics cell;
    accumulate(cell, leg);
    EXPECT_EQ(cell.legs, 1u);
    EXPECT_EQ(cell.ffwLegs, 1u);
    EXPECT_EQ(cell.bbrLegs, 0u);
    EXPECT_EQ(cell.ffwWindowSize[4], 10u);

    LegForensics failed;
    failed.failCause = LinkFailCause::NoChunk;
    accumulate(cell, failed);
    EXPECT_EQ(cell.legs, 2u);
    EXPECT_EQ(cell.ffwLegs, 1u);
    EXPECT_EQ(cell.yieldLoss[static_cast<std::size_t>(LinkFailCause::NoChunk)], 1u);
}

// ---- Profile export golden file ----

TEST(Profile, JsonMatchesGoldenFile) {
    std::vector<obs::SpanStat> spans;
    spans.push_back({"execute", 8, 3'000'000'000, 2'500'000'000});
    spans.push_back({"link", 8, 500'000'000, 500'000'000});
    spans.push_back({"sweep", 1, 4'000'000'000, 500'000'000});
    ProfileExportMeta meta;
    meta.version = "test"; // fixed: the golden must not depend on git state
    meta.wallSeconds = 4.0;
    meta.threads = 2;
    const std::string json = profileToJson(spans, {}, meta);

    const std::string path =
        std::string(VOLTCACHE_TEST_GOLDEN_DIR) + "/profile_small.json";
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

    // The export must also parse back and carry the coverage invariant.
    const JsonValue doc = parseJson(json);
    EXPECT_EQ(doc.stringOr("kind", ""), "profile");
    EXPECT_DOUBLE_EQ(doc.numberOr("selfSeconds", 0.0), 3.5);
    EXPECT_DOUBLE_EQ(doc.numberOr("coverage", 0.0), 3.5 / 4.0);
}

// ---- Determinism with profiling enabled ----

TEST(Profile, SweepJsonIsByteIdenticalAcrossThreadsWhileProfiling) {
    ProfilerGuard guard;
    obs::Profiler::setEnabled(true);
    SweepConfig config;
    config.benchmarks = {"crc32"};
    config.schemes = {SchemeKind::SimpleWordDisable, SchemeKind::FfwBbr};
    config.points = {DvfsTable::at(400_mV)};
    config.trials = 2;
    config.scale = WorkloadScale::Tiny;
    SweepExportMeta meta;
    meta.version = "test";

    config.threads = 1;
    const std::string serial = sweepResultToJson(runSweep(config), meta);
    config.threads = 2;
    const std::string threaded = sweepResultToJson(runSweep(config), meta);
    obs::Profiler::setEnabled(false);
    EXPECT_EQ(serial, threaded)
        << "profiling must not perturb the deterministic reduction";
}

} // namespace
} // namespace voltcache
