// Tests for the end-to-end job tracing plane (obs/trace_context.h) and the
// crash flight recorder (obs/flight_recorder.h): deterministic id
// derivation (a client-minted hex id re-parsed server-side must reproduce
// the identical span tree), the bounded JobTraceStore collector behind
// /trace/<job>, zero-cost rendering of cached legs, and the
// async-signal-safe dump path including the VC_CHECK contract hook — plus
// the headline guarantee that a sweep traced through its SweepJobScope
// exports byte-identical JSON.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/contracts.h"
#include "common/json_parse.h"
#include "core/report.h"
#include "core/sweep.h"
#include "core/sweep_telemetry.h"
#include "obs/flight_recorder.h"
#include "obs/trace_context.h"
#include "power/dvfs.h"

namespace voltcache {
namespace {

using literals::operator""_mV;

std::string tempPath(const char* stem) {
    return testing::TempDir() + stem;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

// ---- id derivation ----

TEST(TraceContext, MintedIdsAreValidUniqueAndRoundTripThroughHex) {
    const obs::TraceContext a = obs::makeRootContext("job-a");
    const obs::TraceContext b = obs::makeRootContext("job-a"); // same label
    EXPECT_TRUE(a.valid());
    EXPECT_TRUE(b.valid());
    EXPECT_NE(a, b); // the process counter separates same-label mints

    const std::string hex = obs::traceIdHex(a);
    ASSERT_EQ(hex.size(), 32u);
    obs::TraceContext parsed;
    ASSERT_TRUE(obs::parseTraceIdHex(hex, parsed));
    EXPECT_EQ(parsed, a);
}

// The root span id must be a pure function of the 128-bit trace id: the
// client mints the context, the server re-parses only the hex id, and both
// must agree on every span id in the tree (they are derived from the root).
TEST(TraceContext, ClientAndServerDeriveTheSameSpanTree) {
    const obs::TraceContext client = obs::makeRootContext("submit");
    obs::TraceContext server;
    ASSERT_TRUE(obs::parseTraceIdHex(obs::traceIdHex(client), server));
    EXPECT_EQ(server.spanId, client.spanId);
    EXPECT_EQ(server.spanId, obs::rootSpanId(client));
    for (std::uint64_t leg = 0; leg < 8; ++leg) {
        EXPECT_EQ(obs::childSpanId(client, leg), obs::childSpanId(server, leg));
    }
}

TEST(TraceContext, ChildSpanIdsAreDeterministicAndDistinct) {
    const obs::TraceContext context = obs::makeRootContext("sweep");
    std::set<std::uint64_t> ids;
    for (std::uint64_t leg = 0; leg < 64; ++leg) {
        const std::uint64_t id = obs::childSpanId(context, leg);
        EXPECT_EQ(id, obs::childSpanId(context, leg)); // pure function
        EXPECT_NE(id, 0u);
        ids.insert(id);
    }
    EXPECT_EQ(ids.size(), 64u);
}

TEST(TraceContext, ParseRejectsMalformedIds) {
    obs::TraceContext context;
    EXPECT_FALSE(obs::parseTraceIdHex("", context));
    EXPECT_FALSE(obs::parseTraceIdHex("abc", context));
    EXPECT_FALSE(obs::parseTraceIdHex(std::string(31, 'a'), context));
    EXPECT_FALSE(obs::parseTraceIdHex(std::string(33, 'a'), context));
    EXPECT_FALSE(obs::parseTraceIdHex(std::string(16, 'a') + std::string(15, 'b') + "g",
                                      context));
    EXPECT_FALSE(obs::parseTraceIdHex(std::string(32, '0'), context)); // zero = off
    EXPECT_FALSE(context.valid()); // unmodified on every failure
}

// ---- JobTraceStore ----

TEST(JobTraceStore, CollectsSpansAndRendersChromeTraceJson) {
    obs::JobTraceStore& store = obs::JobTraceStore::global();
    store.clear();
    EXPECT_FALSE(obs::JobTraceStore::collecting());

    const obs::TraceContext context = obs::makeRootContext("job-1");
    store.beginJob("job-1", context);
    EXPECT_TRUE(obs::JobTraceStore::collecting());

    obs::LegEvent executed;
    executed.phase = obs::LegEvent::Phase::Finished;
    executed.spanId = obs::childSpanId(context, 0);
    executed.startNs = 1'000'000;
    executed.durationNs = 2'000'000;
    executed.setBenchmark("crc32");
    executed.setScheme("ffw+bbr");
    executed.voltageMv = 400;
    store.recordLeg(context, executed);

    obs::LegEvent cached = executed;
    cached.leg = 1;
    cached.spanId = obs::childSpanId(context, 1);
    cached.trial = 1;
    cached.cached = true;
    cached.durationNs = 5'000; // store-lookup wall time
    store.recordLeg(context, cached);

    store.endJob(context);
    EXPECT_FALSE(obs::JobTraceStore::collecting());

    // Queryable by label and by hex id, and both name the same document.
    const std::string byLabel = store.toChromeJson("job-1");
    const std::string byId = store.toChromeJson(obs::traceIdHex(context));
    ASSERT_FALSE(byLabel.empty());
    EXPECT_EQ(byLabel, byId);
    EXPECT_TRUE(store.toChromeJson("no-such-job").empty());

    const JsonValue doc = parseJson(byLabel);
    EXPECT_EQ(doc.stringOr("kind", ""), "trace");
    EXPECT_EQ(doc.stringOr("trace", ""), obs::traceIdHex(context));
    EXPECT_EQ(doc.numberOr("spanCount", 0.0), 2.0);
    const JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->items.size(), 2u);

    // The executed leg renders its real duration (µs); the cached leg is
    // zero-cost on the timeline with the wall time preserved in args.
    const JsonValue& hot = events->items[0];
    EXPECT_EQ(hot.stringOr("name", ""), "leg crc32/ffw+bbr@400mV#0");
    EXPECT_EQ(hot.numberOr("dur", 0.0), 2000.0);
    const JsonValue& hit = events->items[1];
    EXPECT_EQ(hit.numberOr("dur", -1.0), 0.0);
    EXPECT_EQ(hit.stringOr("cat", ""), "leg,cached");
    const JsonValue* args = hit.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->numberOr("wallNs", 0.0), 5000.0);
    const JsonValue* isCached = args->find("cached");
    ASSERT_NE(isCached, nullptr);
    EXPECT_TRUE(isCached->asBool());

    store.clear();
}

TEST(JobTraceStore, RecordCurrentAttributesToTheScopedContext) {
    obs::JobTraceStore& store = obs::JobTraceStore::global();
    store.clear();
    const obs::TraceContext context = obs::makeRootContext("scoped");
    store.beginJob("scoped", context);
    {
        const obs::ScopedTraceContext scope(context);
        store.recordCurrent("reduce", 10, 20);
    }
    // Outside the scope the current context is empty again: dropped.
    store.recordCurrent("orphan", 30, 40);
    store.endJob(context);

    const JsonValue doc = parseJson(store.toChromeJson("scoped"));
    EXPECT_EQ(doc.numberOr("spanCount", 0.0), 1.0);
    const JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->items.size(), 1u);
    EXPECT_EQ(events->items[0].stringOr("name", ""), "reduce");
    EXPECT_EQ(events->items[0].stringOr("cat", ""), "phase");
    store.clear();
}

TEST(JobTraceStore, BoundsJobsAndSpansWithDropAccounting) {
    obs::JobTraceStore& store = obs::JobTraceStore::global();
    store.clear();

    // One job past the cap: the oldest is evicted, newest survive.
    std::vector<obs::TraceContext> contexts;
    for (std::size_t i = 0; i <= obs::JobTraceStore::kMaxJobs; ++i) {
        const obs::TraceContext context =
            obs::makeRootContext("bulk-" + std::to_string(i));
        contexts.push_back(context);
        store.beginJob("bulk-" + std::to_string(i), context);
        store.endJob(context);
    }
    EXPECT_TRUE(store.toChromeJson("bulk-0").empty());
    EXPECT_FALSE(store.toChromeJson("bulk-1").empty());

    // Per-job span cap: overflow is counted, not stored.
    const obs::TraceContext context = obs::makeRootContext("fat");
    store.beginJob("fat", context);
    const std::uint64_t droppedBefore = store.dropped();
    for (std::size_t i = 0; i < obs::JobTraceStore::kMaxSpansPerJob + 10; ++i) {
        obs::JobSpan span;
        span.phase = "filler";
        store.record(context, span);
    }
    store.endJob(context);
    EXPECT_EQ(store.dropped(), droppedBefore + 10);
    const JsonValue doc = parseJson(store.toChromeJson("fat"));
    EXPECT_EQ(doc.numberOr("spanCount", 0.0),
              static_cast<double>(obs::JobTraceStore::kMaxSpansPerJob));
    EXPECT_EQ(doc.numberOr("droppedSpans", 0.0), 10.0);

    // The index lists newest first.
    const JsonValue index = parseJson(store.indexJson());
    const JsonValue* jobs = index.find("jobs");
    ASSERT_NE(jobs, nullptr);
    ASSERT_FALSE(jobs->items.empty());
    EXPECT_EQ(jobs->items[0].stringOr("job", ""), "fat");
    store.clear();
}

// ---- a real traced sweep ----

TEST(TracedSweep, CollectsOneSpanPerLegAndExportsByteIdenticalJson) {
    SweepConfig plain;
    plain.benchmarks = {"crc32"};
    plain.schemes = {SchemeKind::SimpleWordDisable, SchemeKind::FfwBbr};
    plain.points = {DvfsTable::at(560_mV), DvfsTable::at(400_mV)};
    plain.trials = 2;
    plain.scale = WorkloadScale::Tiny;
    plain.threads = 2;

    SweepExportMeta meta;
    meta.version = "trace-test";
    meta.trials = plain.trials;
    meta.scale = "tiny";
    meta.benchmarks = plain.benchmarks;
    const std::string referenceJson = sweepResultToJson(runSweep(plain), meta);

    obs::JobTraceStore& store = obs::JobTraceStore::global();
    store.clear();
    SweepConfig traced = plain;
    const obs::TraceContext trace = obs::makeRootContext("sweep-test");
    // Workers fire leg events concurrently.
    std::atomic<std::size_t> finishedLegs{0};
    std::atomic<std::uint64_t> wrongSpanIds{0};
    traced.onLegEvent = [&](const obs::LegEvent& event) {
        if (event.phase != obs::LegEvent::Phase::Finished) return;
        ++finishedLegs;
        // Every event carries the owning trace and its deterministic span.
        if (event.traceHi != trace.traceHi || event.traceLo != trace.traceLo ||
            event.spanId != obs::childSpanId(trace, event.leg)) {
            ++wrongSpanIds;
        }
    };
    SweepResult result;
    {
        const SweepJobScope scope(traced, "sweep-test", {.trace = trace});
        EXPECT_TRUE(obs::JobTraceStore::collecting());
        EXPECT_EQ(obs::currentTraceContext(), trace);
        result = runSweep(traced);
    }
    EXPECT_FALSE(obs::JobTraceStore::collecting());
    EXPECT_FALSE(obs::currentTraceContext().valid());

    EXPECT_GT(finishedLegs.load(), 0u);
    EXPECT_EQ(wrongSpanIds.load(), 0u);
    const JsonValue doc = parseJson(store.toChromeJson("sweep-test"));
    EXPECT_GE(doc.numberOr("spanCount", 0.0), static_cast<double>(finishedLegs.load()));

    // Tracing observed every leg yet the export did not move a byte.
    EXPECT_EQ(sweepResultToJson(result, meta), referenceJson);
    store.clear();
}

// ---- flight recorder ----

TEST(FlightRecorder, DumpsParseableJsonOnceAndRearms) {
    const std::string path = tempPath("flight_basic.json");
    obs::FlightRecorder::Options options;
    options.path = path;
    options.eventCapacity = 8;
    obs::FlightRecorder& recorder = obs::FlightRecorder::install(options);
    EXPECT_TRUE(obs::flightRecorderArmed());
    EXPECT_EQ(obs::FlightRecorder::instance(), &recorder);

    const obs::TraceContext context = obs::makeRootContext("flight-job");
    recorder.noteJob("flight-job", context);
    obs::SweepProgress progress;
    progress.legsCompleted = 3;
    progress.legsTotal = 12;
    progress.workers = 2;
    recorder.noteProgress(progress);
    recorder.noteMetrics();
    for (std::uint32_t i = 0; i < 12; ++i) { // > capacity: ring wraps
        obs::LegEvent event;
        event.phase = obs::LegEvent::Phase::Finished;
        event.leg = i;
        event.setBenchmark("crc32");
        event.setScheme("ffw+bbr");
        event.voltageMv = 400;
        event.durationNs = 1000 + i;
        recorder.noteLegEvent(event);
    }
    EXPECT_EQ(recorder.eventsNoted(), 12u);

    ASSERT_TRUE(recorder.dumpNow("test", "unit"));
    EXPECT_FALSE(recorder.dumpNow("test", "second")); // dump-once until rearm

    const JsonValue doc = parseJson(slurp(path));
    EXPECT_EQ(doc.stringOr("kind", ""), "flight");
    EXPECT_EQ(doc.stringOr("reason", ""), "test");
    EXPECT_EQ(doc.stringOr("detail", ""), "unit");
    EXPECT_EQ(doc.stringOr("job", ""), "flight-job");
    EXPECT_EQ(doc.stringOr("trace", ""), obs::traceIdHex(context));
    const JsonValue* dumpedProgress = doc.find("progress");
    ASSERT_NE(dumpedProgress, nullptr);
    EXPECT_EQ(dumpedProgress->numberOr("legsCompleted", 0.0), 3.0);
    EXPECT_EQ(dumpedProgress->numberOr("legsTotal", 0.0), 12.0);
    // The ring kept the newest 8 of 12 events, oldest-first.
    EXPECT_EQ(doc.numberOr("eventsNoted", 0.0), 12.0);
    EXPECT_EQ(doc.numberOr("eventsDropped", 0.0), 4.0);
    const JsonValue* events = doc.find("events");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->items.size(), 8u);
    EXPECT_EQ(events->items.front().numberOr("leg", 0.0), 4.0);
    EXPECT_EQ(events->items.back().numberOr("leg", 0.0), 11.0);
    EXPECT_EQ(events->items.back().stringOr("outcome", ""), "ok");

    // rearm() re-enables the dump; the file is rewritten from the start.
    recorder.rearm();
    ASSERT_TRUE(recorder.dumpNow("again"));
    const JsonValue redump = parseJson(slurp(path));
    EXPECT_EQ(redump.stringOr("reason", ""), "again");
    std::remove(path.c_str());
}

TEST(FlightRecorder, ContractFailureDumpsAtTheFailureSite) {
    const std::string path = tempPath("flight_contract.json");
    obs::FlightRecorder::Options options;
    options.path = path;
    obs::FlightRecorder& recorder = obs::FlightRecorder::install(options);
    recorder.rearm();

    // VC_CHECK fires the hook at the failure site, then throws as usual.
    EXPECT_THROW(VC_CHECK(1 + 1 == 3), ContractViolation);

    const JsonValue doc = parseJson(slurp(path));
    EXPECT_EQ(doc.stringOr("kind", ""), "flight");
    EXPECT_EQ(doc.stringOr("reason", ""), "Check");
    EXPECT_NE(doc.stringOr("detail", "").find("1 + 1 == 3"), std::string::npos);
    EXPECT_NE(doc.stringOr("detail", "").find("test_trace_context.cpp"),
              std::string::npos);
    std::remove(path.c_str());
}

// A sweep with the recorder armed (and a deliberate mid-sweep contract
// failure) must leave a parseable dump naming the failing leg's check, while
// the sweep itself fails loudly — the executor rethrows the leg error.
TEST(FlightRecorder, InducedLegFailureLeavesADumpAndFailsTheSweep) {
    const std::string path = tempPath("flight_sweep.json");
    obs::FlightRecorder::Options options;
    options.path = path;
    obs::FlightRecorder& recorder = obs::FlightRecorder::install(options);
    recorder.rearm();

    SweepConfig config;
    config.benchmarks = {"crc32"};
    config.schemes = {SchemeKind::SimpleWordDisable, SchemeKind::FfwBbr};
    config.points = {DvfsTable::at(560_mV)};
    config.trials = 1;
    config.scale = WorkloadScale::Tiny;
    config.threads = 1;
    config.failAtLeg = 2; // 1-based: the second leg trips VC_CHECK

    EXPECT_THROW(
        {
            const SweepJobScope scope(
                config, "failing",
                {.flight = &recorder, .trace = obs::makeRootContext("failing")});
            (void)runSweep(config);
        },
        ContractViolation);
    EXPECT_FALSE(obs::JobTraceStore::collecting());

    const JsonValue doc = parseJson(slurp(path));
    EXPECT_EQ(doc.stringOr("kind", ""), "flight");
    EXPECT_EQ(doc.stringOr("reason", ""), "Check");
    EXPECT_NE(doc.stringOr("detail", "").find("failAtLeg"), std::string::npos);
    const JsonValue* events = doc.find("events");
    ASSERT_NE(events, nullptr);
    EXPECT_FALSE(events->items.empty());
    std::remove(path.c_str());
}

} // namespace
} // namespace voltcache
