// Tests for the end-to-end job tracing plane (obs/trace_context.h, obs/trace.h) and the
// crash flight recorder (obs/flight_recorder.h): deterministic id
// derivation (a client-minted hex id re-parsed server-side must reproduce
// the identical span tree), the bounded JobTraceStore timelines behind
// /trace/<job>, zero-cost rendering of cached legs, and the
// async-signal-safe dump path including the VC_CHECK contract hook — plus
// the headline guarantee that a sweep traced through its SweepJobScope
// exports byte-identical JSON.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <latch>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/contracts.h"
#include "common/json_parse.h"
#include "core/report.h"
#include "core/sweep.h"
#include "core/sweep_telemetry.h"
#include "obs/clock.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
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
    store.recordLeg(executed);

    obs::LegEvent cached = executed;
    cached.leg = 1;
    cached.spanId = obs::childSpanId(context, 1);
    cached.trial = 1;
    cached.cached = true;
    cached.durationNs = 5'000; // store-lookup wall time
    store.recordLeg(cached);

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

// A profiler span that closes while a job is open lands in that job's
// timeline as a phase span under the job's root; once the job closed,
// spans are dropped.
TEST(JobTraceStore, RecordCurrentAttributesToTheScopedContext) {
    obs::JobTraceStore& store = obs::JobTraceStore::global();
    store.clear();
    obs::Profiler::setEnabled(true);
    const obs::TraceContext context = obs::makeRootContext("scoped");
    store.beginJob("scoped", context);
    { const obs::Span span("reduce"); }
    store.endJob(context);
    { const obs::Span span("orphan"); }
    obs::Profiler::setEnabled(false);
    obs::Profiler::reset();

    const JsonValue doc = parseJson(store.toChromeJson("scoped"));
    EXPECT_EQ(doc.numberOr("spanCount", 0.0), 1.0);
    const JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->items.size(), 1u);
    EXPECT_EQ(events->items[0].stringOr("name", ""), "reduce");
    EXPECT_EQ(events->items[0].stringOr("cat", ""), "phase");
    const JsonValue* args = events->items[0].find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->stringOr("parent", ""), obs::spanIdHex(context.spanId));
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

    // Per-job ring: overflow overwrites the oldest events, counted per job
    // and in the registry.
    const auto droppedTotal = [] {
        for (const auto& metric : obs::MetricsRegistry::global().snapshot()) {
            if (metric.name == "obs.trace_dropped_total") return metric.count;
        }
        return std::uint64_t{0};
    };
    const obs::TraceContext context = obs::makeRootContext("fat");
    store.beginJob("fat", context);
    const std::uint64_t droppedBefore = droppedTotal();
    for (std::size_t i = 0; i < obs::JobTraceStore::kMaxSpansPerJob + 10; ++i) {
        obs::traceSpan("filler", "phase", 0, 1, {{"i", static_cast<std::int64_t>(i)}});
    }
    store.endJob(context);
    EXPECT_EQ(droppedTotal(), droppedBefore + 10);
    const JsonValue doc = parseJson(store.toChromeJson("fat"));
    EXPECT_EQ(doc.numberOr("spanCount", 0.0),
              static_cast<double>(obs::JobTraceStore::kMaxSpansPerJob));
    EXPECT_EQ(doc.numberOr("droppedSpans", 0.0), 10.0);
    const JsonValue* fillers = doc.find("traceEvents");
    ASSERT_NE(fillers, nullptr);
    EXPECT_EQ(fillers->items.front().find("args")->numberOr("i", -1.0), 10.0)
        << "the ten oldest events were overwritten";

    // The index lists newest first.
    const JsonValue index = parseJson(store.indexJson());
    const JsonValue* jobs = index.find("jobs");
    ASSERT_NE(jobs, nullptr);
    ASSERT_FALSE(jobs->items.empty());
    EXPECT_EQ(jobs->items[0].stringOr("job", ""), "fat");
    store.clear();
}

// A job whose phases start fresh workers reuses their slots as tids: the
// tracks number at most the live threads, not every thread the job ran.
TEST(JobTraceStore, JoinedThreadsRecordOnRecycledTids) {
    obs::JobTraceStore& store = obs::JobTraceStore::global();
    store.clear();
    (void)obs::threadSlot(); // the main thread holds a slot too
    const obs::TraceContext context = obs::makeRootContext("churn");
    store.beginJob("churn", context);
    constexpr std::size_t kThreads = 32;
    for (std::size_t t = 0; t < kThreads; ++t) {
        std::thread([] { obs::traceSpan("worker", "phase", obs::steadyNowNs(), 1); }).join();
    }
    store.endJob(context);

    const JsonValue doc = parseJson(store.toChromeJson("churn"));
    const JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->items.size(), kThreads);
    // One worker lives at a time, so every worker records on the one slot
    // the previous worker returned, whatever threads the process keeps
    // alive besides (a sweep's pool threads hold slots too).
    std::set<double> tids;
    for (const JsonValue& event : events->items) tids.insert(event.numberOr("tid", -1.0));
    EXPECT_EQ(tids.size(), 1U);
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
        result = runSweep(traced);
    }
    EXPECT_FALSE(obs::JobTraceStore::collecting());

    EXPECT_GT(finishedLegs.load(), 0u);
    EXPECT_EQ(wrongSpanIds.load(), 0u);
    const JsonValue doc = parseJson(store.toChromeJson("sweep-test"));
    EXPECT_GE(doc.numberOr("spanCount", 0.0), static_cast<double>(finishedLegs.load()));

    // Tracing observed every leg yet the export did not move a byte.
    EXPECT_EQ(sweepResultToJson(result, meta), referenceJson);
    store.clear();
}

SweepConfig tinyTracedSweep(unsigned threads) {
    SweepConfig config;
    config.benchmarks = {"crc32", "basicmath"};
    config.schemes = {SchemeKind::SimpleWordDisable, SchemeKind::FbaPlus, SchemeKind::FfwBbr};
    config.points = {DvfsTable::at(560_mV), DvfsTable::at(400_mV)};
    config.trials = 2;
    config.scale = WorkloadScale::Tiny;
    config.threads = threads;
    return config;
}

// Every event sits on its recording thread's track, so the profiler's phase
// spans nest on each tid even while four workers run phases at once.
TEST(TracedSweep, PhaseSpansNestOnEachThreadTrack) {
    obs::JobTraceStore& store = obs::JobTraceStore::global();
    store.clear();
    SweepConfig config = tinyTracedSweep(4);
    obs::Profiler::setEnabled(true);
    {
        const SweepJobScope scope(config, "nesting", {.trace = obs::makeRootContext("nesting")});
        (void)runSweep(config);
    }
    obs::Profiler::setEnabled(false);
    obs::Profiler::reset();

    const JsonValue doc = parseJson(store.toChromeJson("nesting"));
    EXPECT_EQ(doc.numberOr("droppedSpans", -1.0), 0.0);
    const JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::map<std::uint64_t, std::vector<std::pair<double, double>>> tracks; // tid -> [start, end)
    for (const JsonValue& event : events->items) {
        if (event.stringOr("cat", "") != "phase") continue;
        const double start = event.numberOr("ts", 0.0);
        tracks[static_cast<std::uint64_t>(event.numberOr("tid", 0.0))].emplace_back(
            start, start + event.numberOr("dur", 0.0));
    }
    constexpr double kEpsUs = 1e-6;
    std::size_t phases = 0;
    std::size_t partialOverlaps = 0;
    for (auto& [tid, spans] : tracks) {
        // Outer spans first: by start, the longer one first on a tie.
        std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
            return a.first != b.first ? a.first < b.first : a.second > b.second;
        });
        std::vector<double> enclosingEnds;
        for (const auto& [start, end] : spans) {
            while (!enclosingEnds.empty() && enclosingEnds.back() <= start + kEpsUs) {
                enclosingEnds.pop_back();
            }
            if (!enclosingEnds.empty() && end > enclosingEnds.back() + kEpsUs) ++partialOverlaps;
            enclosingEnds.push_back(end);
            ++phases;
        }
    }
    EXPECT_GT(phases, 0u);
    EXPECT_GT(tracks.size(), 1u) << "workers record on their own tracks";
    EXPECT_EQ(partialOverlaps, 0u);
    store.clear();
}

// A traced job alone starts no worker-utilization sampler: every serve job
// is traced, and each sampler is one more thread. Instant events start one,
// and its counters join the job's timeline.
TEST(TracedSweep, UnprofiledTracedSweepStartsNoSampler) {
    const auto samples = [] {
        for (const auto& metric : obs::MetricsRegistry::global().snapshot()) {
            if (metric.name == "sweep.active_workers") return metric.count;
        }
        return std::uint64_t{0};
    };
    obs::JobTraceStore& store = obs::JobTraceStore::global();
    store.clear();
    ASSERT_FALSE(obs::Profiler::enabled());
    const std::uint64_t before = samples();
    SweepConfig traced = tinyTracedSweep(2);
    {
        const SweepJobScope scope(traced, "unsampled",
                                  {.trace = obs::makeRootContext("unsampled")});
        (void)runSweep(traced);
    }
    EXPECT_EQ(samples(), before);

    SweepConfig withInstants = tinyTracedSweep(2);
    {
        const SweepJobScope scope(withInstants, "sampled",
                                  {.trace = obs::makeRootContext("sampled"), .instants = true});
        (void)runSweep(withInstants);
    }
    EXPECT_GT(samples(), before);
    const JsonValue doc = parseJson(store.toChromeJson("sampled"));
    const JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_TRUE(std::any_of(events->items.begin(), events->items.end(), [](const JsonValue& e) {
        return e.stringOr("ph", "") == "C" && e.stringOr("name", "") == "sweep.workers_active";
    }));
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

// A serve daemon starts new workers for every job: after far more joined
// threads than the recorder has stacks, a live thread's open span must still
// be in the dump, and no exited thread's span may linger there.
TEST(FlightRecorder, SpanStacksSurviveThreadChurn) {
    const std::string path = tempPath("flight_churn.json");
    obs::FlightRecorder::Options options;
    options.path = path;
    obs::FlightRecorder& recorder = obs::FlightRecorder::install(options);
    recorder.rearm();
    for (int t = 0; t < 100; ++t) {
        std::thread([] { const obs::Span span("joined_worker"); }).join();
    }
    std::latch opened(1);
    std::latch release(1);
    std::thread live([&opened, &release] {
        const obs::Span span("live_worker");
        opened.count_down();
        release.wait();
    });
    opened.wait();
    const bool dumped = recorder.dumpNow("test", "churn");
    release.count_down();
    live.join();
    ASSERT_TRUE(dumped);

    const JsonValue doc = parseJson(slurp(path));
    const JsonValue* threads = doc.find("threads");
    ASSERT_NE(threads, nullptr);
    std::size_t liveStacks = 0;
    for (const JsonValue& thread : threads->items) {
        const JsonValue* spans = thread.find("spans");
        ASSERT_NE(spans, nullptr);
        for (const JsonValue& span : spans->items) {
            EXPECT_NE(span.asString(), "joined_worker");
            if (span.asString() == "live_worker") ++liveStacks;
        }
    }
    EXPECT_EQ(liveStacks, 1u);
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
