// Tests for the live telemetry plane: the Prometheus text-exposition
// renderer (names, escaping, log2 -> cumulative `le` buckets, deterministic
// ordering), the HTTP exporter, the bounded NDJSON leg journal (per-producer
// ordering + drop accounting under a saturated ring), metrics deltas, and a
// live in-process scrape against a real running sweep — which also proves
// that attaching the whole plane leaves the sweep JSON byte-identical.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <latch>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/contracts.h"
#include "common/json_parse.h"
#include "common/socket.h"
#include "core/report.h"
#include "core/sweep.h"
#include "core/sweep_telemetry.h"
#include "obs/clock.h"
#include "obs/export/http_server.h"
#include "obs/export/journal.h"
#include "obs/export/prometheus.h"
#include "obs/export/telemetry.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "power/dvfs.h"

namespace voltcache {
namespace {

using literals::operator""_mV;
using obs::LabelList;
using obs::MetricKind;
using obs::MetricSnapshot;

std::string tempPath(const char* stem) {
    return testing::TempDir() + stem;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

// ---- Prometheus renderer ----

TEST(Prometheus, NameSanitization) {
    EXPECT_EQ(obs::prometheusName("sweep.legs_per_sec"),
              "voltcache_sweep_legs_per_sec");
    EXPECT_EQ(obs::prometheusName("l1d.faulty-words"), "voltcache_l1d_faulty_words");
    // A leading digit after the prefix is still a valid exposition name, but
    // sanitize anything that is not [a-zA-Z0-9_:].
    EXPECT_EQ(obs::prometheusName("a b"), "voltcache_a_b");
    EXPECT_EQ(obs::prometheusLabelName("mv"), "mv");
    EXPECT_EQ(obs::prometheusLabelName("fail.cause"), "fail_cause");
    // Label names may not start with a digit and never take the namespace
    // prefix.
    EXPECT_EQ(obs::prometheusLabelName("9lives"), "_lives");
}

TEST(Prometheus, LabelValueEscaping) {
    EXPECT_EQ(obs::prometheusEscapeLabel("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(obs::prometheusEscapeHelp("slash \\ newline \n"),
              "slash \\\\ newline \\n");
}

TEST(Prometheus, CounterRendering) {
    std::vector<MetricSnapshot> snapshot(1);
    snapshot[0].name = "bbr.fetch_misses";
    snapshot[0].labels = {{"scheme", "ffw+bbr"}, {"mv", "400"}};
    snapshot[0].kind = MetricKind::Counter;
    snapshot[0].count = 42;
    const std::string text = obs::renderPrometheus(snapshot);
    EXPECT_NE(text.find("# HELP voltcache_bbr_fetch_misses_total "
                        "voltcache metric 'bbr.fetch_misses'\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE voltcache_bbr_fetch_misses_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("voltcache_bbr_fetch_misses_total"
                        "{scheme=\"ffw+bbr\",mv=\"400\"} 42\n"),
              std::string::npos);
}

// Hand-computed log2 -> cumulative `le` mapping: observations {0,1,2,3,8}.
// Bucket 0 holds 0; bucket b>0 holds [2^(b-1), 2^b), so the inclusive upper
// bounds are 0, 1, 3, 7, 15, ... and the cumulative counts must be
// 1, 2, 4, 4, 5, +Inf=5 with sum 14 and count 5.
TEST(Prometheus, HistogramCumulativeBuckets) {
    obs::MetricsRegistry registry;
    for (const std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 8ull}) {
        registry.observe("leg.duration", {}, v);
    }
    const std::string text = obs::renderPrometheus(registry.snapshot());
    EXPECT_NE(text.find("# TYPE voltcache_leg_duration histogram\n"),
              std::string::npos);
    EXPECT_NE(text.find("voltcache_leg_duration_bucket{le=\"0\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("voltcache_leg_duration_bucket{le=\"1\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("voltcache_leg_duration_bucket{le=\"3\"} 4\n"),
              std::string::npos);
    EXPECT_NE(text.find("voltcache_leg_duration_bucket{le=\"7\"} 4\n"),
              std::string::npos);
    EXPECT_NE(text.find("voltcache_leg_duration_bucket{le=\"15\"} 5\n"),
              std::string::npos);
    EXPECT_NE(text.find("voltcache_leg_duration_bucket{le=\"+Inf\"} 5\n"),
              std::string::npos);
    EXPECT_NE(text.find("voltcache_leg_duration_sum 14\n"), std::string::npos);
    EXPECT_NE(text.find("voltcache_leg_duration_count 5\n"), std::string::npos);
}

TEST(Prometheus, HelpAndTypeOncePerFamilyAndDeterministicOrder) {
    obs::MetricsRegistry registry;
    registry.add("l1.hits", {{"scheme", "8T"}}, 1);
    registry.add("l1.hits", {{"scheme", "ffw+bbr"}}, 2);
    registry.set("sweep.workers", {}, 4.0);
    const std::string text = obs::renderPrometheus(registry.snapshot());
    // One HELP/TYPE header covers both label sets of the same family.
    std::size_t helpCount = 0;
    for (std::size_t pos = 0;
         (pos = text.find("# HELP voltcache_l1_hits_total", pos)) != std::string::npos;
         ++pos) {
        ++helpCount;
    }
    EXPECT_EQ(helpCount, 1u);
    // Two scrapes of the same registry are byte-identical (snapshot is
    // (name, labels)-sorted and the renderer adds no nondeterminism).
    EXPECT_EQ(text, obs::renderPrometheus(registry.snapshot()));
    // Counters sort before the gauge (name order), labels in value order.
    EXPECT_LT(text.find("scheme=\"8T\""), text.find("scheme=\"ffw+bbr\""));
    EXPECT_LT(text.find("voltcache_l1_hits_total"),
              text.find("voltcache_sweep_workers"));
}

// ---- metrics deltas ----

TEST(MetricsDelta, TurnsCumulativeCountersIntoRates) {
    obs::TimedMetricsSnapshot prev;
    prev.monotonicNs = 1'000'000'000;
    prev.metrics.resize(1);
    prev.metrics[0].name = "sweep.legs";
    prev.metrics[0].kind = MetricKind::Counter;
    prev.metrics[0].count = 10;

    obs::TimedMetricsSnapshot now;
    now.monotonicNs = 3'000'000'000; // +2s
    now.metrics.resize(2);
    now.metrics[0].name = "sweep.legs";
    now.metrics[0].kind = MetricKind::Counter;
    now.metrics[0].count = 30;
    now.metrics[1].name = "sweep.workers";
    now.metrics[1].kind = MetricKind::Gauge;
    now.metrics[1].value = 8.0;

    const auto rates = obs::metricsDelta(prev, now);
    ASSERT_EQ(rates.size(), 1u); // the gauge is skipped
    EXPECT_EQ(rates[0].name, "sweep.legs");
    EXPECT_EQ(rates[0].delta, 20u);
    EXPECT_NEAR(rates[0].perSec, 10.0, 1e-9);
}

TEST(MetricsDelta, ClampsBackwardsCountersAndRatesNewFamiliesFromZero) {
    obs::TimedMetricsSnapshot prev;
    prev.monotonicNs = 0;
    prev.metrics.resize(1);
    prev.metrics[0].name = "a";
    prev.metrics[0].kind = MetricKind::Counter;
    prev.metrics[0].count = 100;

    obs::TimedMetricsSnapshot now;
    now.monotonicNs = 1'000'000'000;
    now.metrics.resize(2);
    now.metrics[0].name = "a";
    now.metrics[0].kind = MetricKind::Counter;
    now.metrics[0].count = 40; // went backwards: clamp, don't go negative
    now.metrics[1].name = "b";
    now.metrics[1].kind = MetricKind::Counter;
    now.metrics[1].count = 7; // absent from prev: rates from zero

    const auto rates = obs::metricsDelta(prev, now);
    ASSERT_EQ(rates.size(), 2u);
    EXPECT_EQ(rates[0].delta, 0u);
    EXPECT_EQ(rates[1].delta, 7u);
}

TEST(MetricsDelta, SnapshotDeltaAdvancesThePreviousSnapshot) {
    obs::MetricsRegistry registry;
    registry.add("x", {}, 5);
    obs::TimedMetricsSnapshot prev = registry.snapshotTimed();
    registry.add("x", {}, 3);
    const auto rates = registry.snapshotDelta(prev);
    ASSERT_EQ(rates.size(), 1u);
    EXPECT_EQ(rates[0].delta, 3u);
    // prev advanced: an immediate second delta is zero.
    const auto again = registry.snapshotDelta(prev);
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again[0].delta, 0u);
}

// Scrapers race writers in production (the exporter thread snapshots while
// the sweep's workers publish): deltas must never tear, go negative, or
// lose counts — the accumulated deltas plus one final settle-up must equal
// exactly what the writers added.
TEST(MetricsDelta, SnapshotDeltaIsExactUnderConcurrentWriters) {
    obs::MetricsRegistry registry;
    constexpr int kWriters = 4;
    constexpr std::uint64_t kAddsPerWriter = 20'000;

    std::atomic<bool> go{false};
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&registry, &go, w] {
            while (!go.load(std::memory_order_acquire)) {}
            obs::Counter counter = registry.counter(
                "contended", {{"writer", std::to_string(w)}});
            for (std::uint64_t i = 0; i < kAddsPerWriter; ++i) counter.add();
        });
    }

    obs::TimedMetricsSnapshot prev = registry.snapshotTimed();
    go.store(true, std::memory_order_release);
    std::uint64_t accumulated = 0;
    for (int scrape = 0; scrape < 50; ++scrape) {
        for (const obs::MetricRate& rate : registry.snapshotDelta(prev)) {
            accumulated += rate.delta;
        }
    }
    for (std::thread& writer : writers) writer.join();
    for (const obs::MetricRate& rate : registry.snapshotDelta(prev)) {
        accumulated += rate.delta;
    }
    EXPECT_EQ(accumulated, static_cast<std::uint64_t>(kWriters) * kAddsPerWriter);

    // And the timed snapshot agrees with the settled registry.
    std::uint64_t total = 0;
    for (const MetricSnapshot& metric : registry.snapshotTimed().metrics) {
        if (metric.name == "contended") total += metric.count;
    }
    EXPECT_EQ(total, static_cast<std::uint64_t>(kWriters) * kAddsPerWriter);
}

// ---- HTTP server ----

TEST(HttpServer, ServesRoutesAnd404s) {
    obs::HttpServer server(0);
    server.route("/healthz", [] {
        obs::HttpServer::Response response;
        response.body = "ok\n";
        return response;
    });
    server.start();
    ASSERT_NE(server.port(), 0);
    EXPECT_EQ(net::httpGet("127.0.0.1", server.port(), "/healthz"), "ok\n");
    EXPECT_THROW((void)net::httpGet("127.0.0.1", server.port(), "/nope"),
                 std::runtime_error);
    EXPECT_GE(server.requestsServed(), 2u);
    server.stop();
}

TEST(HttpServer, PrefixRoutesYieldToExactAndLongestPrefixWins) {
    obs::HttpServer server(0);
    server.route("/trace", [] {
        obs::HttpServer::Response response;
        response.body = "index";
        return response;
    });
    server.routePrefix("/trace/", [](std::string_view suffix) {
        obs::HttpServer::Response response;
        response.body = "job:" + std::string(suffix);
        return response;
    });
    server.routePrefix("/trace/raw/", [](std::string_view suffix) {
        obs::HttpServer::Response response;
        response.body = "raw:" + std::string(suffix);
        return response;
    });
    server.start();
    ASSERT_NE(server.port(), 0);
    const auto port = server.port();
    EXPECT_EQ(net::httpGet("127.0.0.1", port, "/trace"), "index");
    EXPECT_EQ(net::httpGet("127.0.0.1", port, "/trace/job-7"), "job:job-7");
    EXPECT_EQ(net::httpGet("127.0.0.1", port, "/trace/raw/job-7"), "raw:job-7");
    EXPECT_THROW((void)net::httpGet("127.0.0.1", port, "/tracery"),
                 std::runtime_error);
    server.stop();
}

// --telemetry-port 0 must bind an ephemeral port and serve the enriched
// /healthz (build identity, uptime, store occupancy) plus the /trace index.
TEST(Telemetry, EphemeralPortZeroBindsAndServesHealthAndTraceRoutes) {
    obs::ProgressBoard board;
    obs::TelemetryServer server(0, board);
    ASSERT_NE(server.port(), 0);

    // Two ephemeral exporters coexist on distinct ports.
    obs::ProgressBoard board2;
    obs::TelemetryServer server2(0, board2);
    ASSERT_NE(server2.port(), 0);
    EXPECT_NE(server.port(), server2.port());

    const JsonValue health =
        parseJson(net::httpGet("127.0.0.1", server.port(), "/healthz"));
    EXPECT_EQ(health.stringOr("status", ""), "ok");
    EXPECT_FALSE(health.stringOr("version", "").empty());
    EXPECT_GE(health.numberOr("uptimeSeconds", -1.0), 0.0);
    const JsonValue* storeDoc = health.find("store");
    ASSERT_NE(storeDoc, nullptr);
    EXPECT_GE(storeDoc->numberOr("entries", -1.0), 0.0);
    EXPECT_GE(storeDoc->numberOr("bytes", -1.0), 0.0);

    // /trace serves the job index; /trace/<unknown> is a clean 404.
    const JsonValue index =
        parseJson(net::httpGet("127.0.0.1", server.port(), "/trace"));
    EXPECT_EQ(index.stringOr("kind", ""), "traceIndex");
    EXPECT_THROW(
        (void)net::httpGet("127.0.0.1", server.port(), "/trace/not-a-job"),
        std::runtime_error);
}

// ---- NDJSON leg journal ----

TEST(LegJournal, WritesParseableLinesInPerProducerOrder) {
    const std::string path = tempPath("journal_order.ndjson");
    {
        obs::LegJournal journal(path, /*autoDrain=*/false);
        for (int i = 0; i < 5; ++i) {
            obs::LegEvent event;
            event.phase = obs::LegEvent::Phase::Enqueued;
            event.leg = static_cast<std::uint32_t>(i);
            event.setBenchmark("crc32");
            event.setScheme("ffw+bbr");
            event.voltageMv = 400;
            obs::recordLegEvent(event);
        }
        obs::LegEvent finished;
        finished.phase = obs::LegEvent::Phase::Finished;
        finished.leg = 2;
        finished.worker = 1;
        finished.setBenchmark("crc32");
        finished.setScheme("ffw+bbr");
        finished.voltageMv = 400;
        finished.linkFailed = true;
        finished.setFailCause("shape");
        finished.durationNs = 1234;
        obs::recordLegEvent(finished);
        journal.close();
        EXPECT_EQ(journal.written(), 6u);
        EXPECT_EQ(journal.dropped(), 0u);
    }
    std::ifstream in(path);
    std::string line;
    std::uint64_t expectedSeq = 0;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        const JsonValue doc = parseJson(line); // throws on a malformed line
        ++lines;
        if (doc.stringOr("ev", "") == "enqueued") {
            // FIFO ring + in-order drain: the producer's sequences ascend.
            EXPECT_EQ(doc.numberOr("seq", -1.0), static_cast<double>(expectedSeq++));
            EXPECT_EQ(doc.stringOr("benchmark", ""), "crc32");
        } else {
            EXPECT_EQ(doc.stringOr("ev", ""), "finished");
            EXPECT_EQ(doc.stringOr("outcome", ""), "link_failed");
            EXPECT_EQ(doc.stringOr("cause", ""), "shape");
            EXPECT_EQ(doc.numberOr("durationNs", 0.0), 1234.0);
        }
    }
    EXPECT_EQ(lines, 6u);
    std::remove(path.c_str());
}

TEST(LegJournal, DropsInsteadOfBlockingWhenTheRingSaturates) {
    const std::string path = tempPath("journal_drop.ndjson");
    obs::LegJournal journal(path, /*autoDrain=*/false);
    obs::LegEvent event;
    event.setBenchmark("qsort");
    for (std::size_t i = 0; i < obs::kLegLaneEvents + 6; ++i) obs::recordLegEvent(event);
    // A full lane, no drainer: the lane holds its capacity, the 6 oldest
    // were overwritten — never a stall.
    EXPECT_EQ(journal.drainOnce(), obs::kLegLaneEvents);
    EXPECT_EQ(journal.dropped(), 6u);
    // Later events flow again.
    obs::recordLegEvent(event);
    EXPECT_EQ(journal.drainOnce(), 1u);
    EXPECT_EQ(journal.dropped(), 6u);
    journal.close();
    EXPECT_EQ(journal.written(), obs::kLegLaneEvents + 1);
    EXPECT_EQ(journal.dropped(), 6u);
    std::remove(path.c_str());
}

TEST(LegJournal, StampsTraceContextAndCachedFlagOnLines) {
    const std::string path = tempPath("journal_trace.ndjson");
    obs::LegJournal journal(path, /*autoDrain=*/false);
    obs::TraceContext context;
    ASSERT_TRUE(obs::parseTraceIdHex("0123456789abcdef0123456789abcdef", context));

    obs::LegEvent traced;
    traced.phase = obs::LegEvent::Phase::Finished;
    traced.setBenchmark("crc32");
    traced.cached = true;
    traced.traceHi = context.traceHi;
    traced.traceLo = context.traceLo;
    traced.spanId = obs::childSpanId(context, 0);
    obs::recordLegEvent(traced);
    obs::LegEvent untraced;
    untraced.setBenchmark("crc32");
    obs::recordLegEvent(untraced);
    journal.close();

    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    const JsonValue first = parseJson(line);
    EXPECT_EQ(first.stringOr("trace", ""), "0123456789abcdef0123456789abcdef");
    EXPECT_EQ(first.stringOr("span", ""), obs::spanIdHex(traced.spanId));
    const JsonValue* cached = first.find("cached");
    ASSERT_NE(cached, nullptr);
    EXPECT_TRUE(cached->asBool());
    // Untraced lines carry no trace/span keys at all.
    ASSERT_TRUE(std::getline(in, line));
    const JsonValue second = parseJson(line);
    EXPECT_EQ(second.find("trace"), nullptr);
    EXPECT_EQ(second.find("span"), nullptr);
    std::remove(path.c_str());
}

TEST(LegJournal, RotatesAtTheByteCapAndKeepsOneGeneration) {
    const std::string path = tempPath("journal_rotate.ndjson");
    // ~150-byte lines against a 400-byte cap: every few writes rotate.
    obs::LegJournal journal(path, /*autoDrain=*/false, /*maxBytes=*/400);
    obs::LegEvent event;
    event.phase = obs::LegEvent::Phase::Finished;
    event.setBenchmark("basicmath");
    event.setScheme("ffw+bbr");
    event.voltageMv = 400;
    event.durationNs = 123456;
    for (std::uint32_t i = 0; i < 24; ++i) {
        event.leg = i;
        obs::recordLegEvent(event);
        (void)journal.drainOnce();
    }
    journal.close();
    EXPECT_EQ(journal.written(), 24u);
    EXPECT_GE(journal.rotations(), 1u);

    // Live file and exactly one rotated generation, both bounded and valid
    // NDJSON; together they hold the newest lines (older ones rotated away).
    std::uint64_t kept = 0;
    for (const std::string& file : {path, path + ".1"}) {
        std::ifstream in(file);
        ASSERT_TRUE(in.good()) << file;
        std::string line;
        std::uint64_t bytes = 0;
        while (std::getline(in, line)) {
            EXPECT_NO_THROW((void)parseJson(line));
            bytes += line.size() + 1;
            ++kept;
        }
        EXPECT_LE(bytes, 400u + 200u) << file; // cap + one in-flight line
    }
    EXPECT_LT(kept, 24u);  // rotation discarded the oldest generation
    EXPECT_GT(kept, 0u);
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
}

// A thread whose slot is past the ring bound records no event; the journal
// counts its leg events as dropped, not UB.
TEST(LegJournal, OutOfRangeProducerCountsAsDrop) {
    const std::string path = tempPath("journal_range.ndjson");
    obs::LegJournal journal(path, /*autoDrain=*/false);
    // Park threads on slots until one holds a slot past the bound.
    std::latch release(1);
    std::vector<std::thread> parked;
    std::atomic<std::size_t> holding{0};
    std::atomic<bool> pastBound{false};
    while (!pastBound.load() && parked.size() <= obs::kMaxThreadSlots) {
        parked.emplace_back([&release, &holding, &pastBound] {
            if (obs::threadSlot() >= obs::kMaxThreadSlots) {
                obs::recordLegEvent(obs::LegEvent{});
                pastBound.store(true);
            }
            holding.fetch_add(1);
            release.wait();
        });
        while (holding.load() < parked.size()) std::this_thread::yield();
    }
    release.count_down();
    for (std::thread& thread : parked) thread.join();
    ASSERT_TRUE(pastBound.load());
    (void)journal.drainOnce();
    EXPECT_EQ(journal.dropped(), 1u);
    journal.close();
    EXPECT_EQ(journal.written(), 0u);
    std::remove(path.c_str());
}

// ---- the event rings under concurrent writers and readers ----

/// What a stress event's args carry besides the fields it checks.
std::int64_t stressChecksum(std::int64_t writer, std::int64_t index, std::int64_t extra) {
    return (writer * 1'000'003 + index * 7'919 + extra * 31) % 1'000'000'007;
}

// Writers fill their rings while a reader renders the job's Chrome JSON, a
// racer reads the slot each writer overwrites next, and a journal drains:
// every event either reads back whole or counts as lost.
TEST(EventRing, ConcurrentWritersNeverShowATornEventToAnyReader) {
    constexpr std::int64_t kWriters = 4;
    // Each iteration records two timeline events, one leg event and one
    // instant: the timeline and leg lanes lap.
    constexpr auto kIterations = static_cast<std::int64_t>(obs::kTimelineLaneEvents);
    obs::JobTraceStore& store = obs::JobTraceStore::global();
    store.clear();
    const std::string path = tempPath("journal_stress.ndjson");
    obs::LegJournal journal(path);
    const obs::TraceContext trace = obs::makeRootContext("stress");
    const std::uint32_t job = store.beginJob("stress", trace, /*instants=*/true);

    // A rendered event is whole when its args match their checksum.
    std::atomic<std::size_t> tornRendered{0};
    const auto checkRendered = [&tornRendered](const JsonValue& doc) {
        const JsonValue* events = doc.find("traceEvents");
        if (events == nullptr) return;
        for (const JsonValue& event : events->items) {
            const JsonValue* args = event.find("args");
            const auto w = static_cast<std::int64_t>(args->numberOr("w", -1.0));
            const auto i = static_cast<std::int64_t>(args->numberOr("i", -1.0));
            const std::string name = event.stringOr("name", "");
            bool whole = true;
            if (name == "stress.span") {
                const auto dur = static_cast<std::int64_t>(event.numberOr("dur", -1.0));
                whole = dur == i % 1000 && args->numberOr("c", -1.0) ==
                                               static_cast<double>(stressChecksum(w, i, dur));
            } else if (name == "stress.instant") {
                whole = args->numberOr("c", -1.0) == static_cast<double>(stressChecksum(w, i, 0));
            } else {
                const auto worker = static_cast<std::int64_t>(args->numberOr("worker", -1.0));
                const auto trial = static_cast<std::int64_t>(args->numberOr("trial", -1.0));
                whole = args->numberOr("mv", -1.0) ==
                            static_cast<double>(stressChecksum(worker, trial, 0) % 100'000) &&
                        name == "leg crc32/fba+@" +
                                    std::to_string(stressChecksum(worker, trial, 0) % 100'000) +
                                    "mV#" + std::to_string(trial);
            }
            if (!whole) tornRendered.fetch_add(1);
        }
    };

    // An event read straight from a ring is whole by the same checksums.
    const auto whole = [](const obs::TraceEvent& event) {
        if (event.phase == obs::TracePhase::Leg) {
            const obs::LegEvent& leg = event.leg;
            return leg.leg == leg.trial && leg.durationNs == std::uint64_t{leg.trial} * 7 &&
                   leg.voltageMv == stressChecksum(leg.worker, leg.trial, 0) % 100'000;
        }
        const auto& args = event.point.args;
        const std::int64_t extra = event.phase == obs::TracePhase::Span
                                       ? static_cast<std::int64_t>(event.point.durationNs / 1000)
                                       : 0;
        return event.argCount == 3 && args[2].value == stressChecksum(args[0].value,
                                                                      args[1].value, extra);
    };

    std::atomic<bool> writing{true};
    std::size_t renders = 0;
    std::thread reader([&] {
        while (writing.load()) {
            checkRendered(parseJson(store.toChromeJson("stress")));
            ++renders;
        }
    });
    // The oldest event a lane holds sits in the slot its writer fills next:
    // reading it races the overwrite. A recycled slot's lanes may still hold
    // earlier events, which belong to no stress job.
    std::vector<std::atomic<std::uint32_t>> slots(kWriters);
    for (auto& slot : slots) slot.store(obs::kMaxThreadSlots);
    std::size_t racedReads = 0;
    std::size_t tornReads = 0;
    std::thread racer([&] {
        obs::TraceEvent event;
        while (writing.load()) {
            for (const auto& slot : slots) {
                for (const obs::TraceLane lane : {obs::TraceLane::Timeline, obs::TraceLane::Legs,
                                                  obs::TraceLane::Instants}) {
                    const obs::EventRing* ring = obs::eventRing(slot.load(), lane);
                    if (ring == nullptr) continue;
                    // Leg-lane events carry no job: the writers' carry its trace id.
                    if (ring->read(ring->oldest(ring->recorded()), event) &&
                        (event.job == job || (lane == obs::TraceLane::Legs &&
                                              event.leg.traceLo == trace.traceLo))) {
                        ++racedReads;
                        tornReads += whole(event) ? 0 : 1;
                    }
                }
            }
        }
    });
    // An exiting thread returns its slot for the next to take: every writer
    // holds its own until all have one, so the four write four slots.
    std::latch slotted(kWriters);
    std::vector<std::thread> writers;
    for (std::int64_t w = 0; w < kWriters; ++w) {
        writers.emplace_back([w, job, &trace, &slots, &slotted] {
            slots[static_cast<std::size_t>(w)].store(obs::threadSlot());
            slotted.arrive_and_wait();
            for (std::int64_t i = 0; i < kIterations; ++i) {
                const std::int64_t dur = i % 1000; // µs, exact in the rendered "dur"
                obs::traceSpan("stress.span", "stress", obs::steadyNowNs(),
                               static_cast<std::uint64_t>(dur) * 1000,
                               {{"w", w}, {"i", i}, {"c", stressChecksum(w, i, dur)}});
                obs::traceInstant("stress.instant", "stress",
                                  {{"w", w}, {"i", i}, {"c", stressChecksum(w, i, 0)}});
                obs::LegEvent leg;
                leg.phase = obs::LegEvent::Phase::Finished;
                leg.leg = static_cast<std::uint32_t>(i);
                leg.worker = static_cast<std::uint32_t>(w);
                leg.trial = static_cast<std::uint32_t>(i);
                leg.voltageMv = static_cast<std::int32_t>(stressChecksum(w, i, 0) % 100'000);
                leg.durationNs = static_cast<std::uint64_t>(i) * 7;
                leg.setBenchmark("crc32");
                leg.setScheme("fba+");
                leg.traceHi = trace.traceHi;
                leg.traceLo = trace.traceLo;
                obs::recordLegEvent(leg);
                obs::recordLegSpan(leg, job);
            }
        });
    }
    for (std::thread& writer : writers) writer.join();
    writing.store(false);
    reader.join();
    racer.join();
    EXPECT_GT(racedReads, 0u);
    EXPECT_EQ(tornReads, 0u);
    store.endJob(trace);
    journal.close();
    const JsonValue final = parseJson(store.toChromeJson("stress"));
    checkRendered(final);
    EXPECT_GT(renders, 0u);
    EXPECT_EQ(tornRendered.load(), 0u);

    // Each writer's lanes: what is held plus what was overwritten is what
    // was recorded.
    for (const auto& slot : slots) {
        for (const obs::TraceLane lane :
             {obs::TraceLane::Timeline, obs::TraceLane::Legs, obs::TraceLane::Instants}) {
            const obs::EventRing* ring = obs::eventRing(slot.load(), lane);
            ASSERT_NE(ring, nullptr);
            const std::uint64_t recorded = ring->recorded();
            const std::uint64_t dropped = ring->oldest(recorded);
            std::uint64_t kept = 0;
            obs::TraceEvent event;
            for (std::uint64_t i = dropped; i < recorded; ++i) kept += ring->read(i, event) ? 1 : 0;
            EXPECT_EQ(kept + dropped, recorded) << "slot " << slot.load();
        }
    }
    EXPECT_EQ(final.numberOr("spanCount", 0.0) + final.numberOr("droppedSpans", 0.0),
              static_cast<double>(3 * kWriters * kIterations));

    // The journal: every line whole, each producer's (slot's) seq ascending,
    // and every leg event written or counted as dropped.
    std::ifstream in(path);
    std::string line;
    std::map<double, double> lastSeq; // slot -> seq
    std::size_t tornLines = 0;
    while (std::getline(in, line)) {
        const JsonValue doc = parseJson(line);
        const auto worker = static_cast<std::int64_t>(doc.numberOr("worker", -1.0));
        const double slot = doc.numberOr("slot", -1.0);
        const auto trial = static_cast<std::int64_t>(doc.numberOr("trial", -1.0));
        if (doc.numberOr("leg", -1.0) != static_cast<double>(trial) ||
            doc.numberOr("durationNs", -1.0) != static_cast<double>(trial * 7) ||
            doc.numberOr("mv", -1.0) !=
                static_cast<double>(stressChecksum(worker, trial, 0) % 100'000)) {
            ++tornLines;
        }
        const double seq = doc.numberOr("seq", -1.0);
        if (const auto it = lastSeq.find(slot); it != lastSeq.end()) {
            EXPECT_GT(seq, it->second) << line;
        }
        lastSeq[slot] = seq;
    }
    EXPECT_EQ(tornLines, 0u);
    EXPECT_EQ(lastSeq.size(), static_cast<std::size_t>(kWriters));
    EXPECT_EQ(journal.written() + journal.dropped(),
              static_cast<std::uint64_t>(kWriters * kIterations));
    store.clear();
    std::remove(path.c_str());
}

// ---- live integration: a real sweep with the full plane attached ----

SweepConfig tinySweep(unsigned threads) {
    SweepConfig config;
    config.benchmarks = {"crc32"};
    config.schemes = {SchemeKind::SimpleWordDisable, SchemeKind::FfwBbr};
    config.points = {DvfsTable::at(560_mV), DvfsTable::at(400_mV)};
    config.trials = 2;
    config.scale = WorkloadScale::Tiny;
    config.threads = threads;
    return config;
}

std::string exportJson(const SweepResult& result, const SweepConfig& config) {
    SweepExportMeta meta;
    meta.version = "telemetry-test"; // fixed: exclude git describe from the diff
    meta.seed = config.baseSeed;
    meta.trials = config.trials;
    meta.scale = "tiny";
    meta.benchmarks = config.benchmarks;
    return sweepResultToJson(result, meta);
}

TEST(Telemetry, LiveScrapeDuringSweepAndByteIdenticalExport) {
    // Reference run: no hooks at all.
    const SweepConfig plain = tinySweep(2);
    const std::string referenceJson = exportJson(runSweep(plain), plain);

    obs::ProgressBoard board;
    obs::TelemetryServer server(0, board);
    ASSERT_NE(server.port(), 0);

    const std::string journalPath = tempPath("journal_live.ndjson");
    obs::LegJournal journal(journalPath);

    // The full PR 10 plane rides along too: end-to-end job tracing and the
    // armed flight recorder, both of which must also leave the export alone.
    const std::string flightPath = tempPath("flight_live.json");
    obs::FlightRecorder::Options flightOptions;
    flightOptions.path = flightPath;
    obs::FlightRecorder& flight = obs::FlightRecorder::install(flightOptions);

    std::atomic<std::size_t> enqueued{0};
    std::atomic<std::size_t> started{0};
    std::atomic<std::size_t> finished{0};
    std::string metricsBody;
    std::string progressBody;
    bool scraped = false;

    SweepConfig instrumented = tinySweep(2);
    obs::JobTraceStore::global().clear();
    instrumented.onLegEvent = [&](const obs::LegEvent& event) {
        switch (event.phase) {
        case obs::LegEvent::Phase::Enqueued:
            enqueued.fetch_add(1, std::memory_order_relaxed);
            break;
        case obs::LegEvent::Phase::Started:
            started.fetch_add(1, std::memory_order_relaxed);
            break;
        case obs::LegEvent::Phase::Finished:
            finished.fetch_add(1, std::memory_order_relaxed);
            break;
        }
    };
    instrumented.onProgress = [&](const SweepProgress&) {
        // Scrape from inside the sweep — this is a genuinely mid-run scrape,
        // serialized under the progress lock so it happens exactly once.
        if (!scraped) {
            scraped = true;
            metricsBody = net::httpGet("127.0.0.1", server.port(), "/metrics");
            progressBody = net::httpGet("127.0.0.1", server.port(), "/progress");
        }
    };
    // The sinks run ahead of the hooks above: the board holds the tick
    // before the scrape reads it.
    SweepResult result;
    {
        const SweepJobScope scope(instrumented, "live-test",
                                  {&board, &journal, &flight, obs::makeRootContext("live-test")});
        result = runSweep(instrumented);
    }
    journal.close();

    // The plane observed the run...
    ASSERT_TRUE(scraped);
    EXPECT_NE(metricsBody.find("# TYPE voltcache_"), std::string::npos);
    const JsonValue progress = parseJson(progressBody); // well-formed JSON
    EXPECT_EQ(progress.stringOr("kind", ""), "progress");
    const JsonValue* legs = progress.find("legs");
    ASSERT_NE(legs, nullptr);
    EXPECT_GT(legs->numberOr("total", 0.0), 0.0);

    // ...every leg produced its full lifecycle...
    const std::size_t legCount = enqueued.load();
    EXPECT_GT(legCount, 0u);
    EXPECT_EQ(started.load(), legCount);
    EXPECT_EQ(finished.load(), legCount);
    EXPECT_EQ(journal.written() + journal.dropped(), 3 * legCount);

    // ...the journal is valid NDJSON end to end...
    std::ifstream in(journalPath);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        EXPECT_NO_THROW((void)parseJson(line));
        ++lines;
    }
    EXPECT_EQ(lines, journal.written());
    std::remove(journalPath.c_str());

    // ...the trace store collected one span per leg plus the root...
    const JsonValue trace =
        parseJson(obs::JobTraceStore::global().toChromeJson("live-test"));
    EXPECT_EQ(trace.stringOr("kind", ""), "trace");
    EXPECT_GE(trace.numberOr("spanCount", 0.0), static_cast<double>(legCount));
    EXPECT_GT(flight.eventsNoted(), 0u);
    obs::JobTraceStore::global().clear();

    // ...and observation never changed the result: byte-identical export.
    EXPECT_EQ(exportJson(result, instrumented), referenceJson);

    // The scope's end marked the board done, under the job's label.
    const JsonValue finalDoc = parseJson(board.toJson());
    const JsonValue* done = finalDoc.find("done");
    ASSERT_NE(done, nullptr);
    EXPECT_TRUE(done->asBool());
    EXPECT_EQ(finalDoc.stringOr("job", ""), "live-test");
}

// The fixed-size name fields of LegEvent hold every name a sweep writes
// into them without truncation, so /trace, the journal and the flight dump
// all print whole names.
TEST(LegEvent, NameFieldsHoldEveryBenchmarkSchemeAndFailCause) {
    obs::LegEvent event;
    for (const BenchmarkInfo& info : benchmarkList()) {
        event.setBenchmark(info.name);
        EXPECT_EQ(std::string_view(event.benchmark), info.name);
    }
    for (const SchemeKind kind : kAllSchemes) {
        event.setScheme(schemeName(kind));
        EXPECT_EQ(std::string_view(event.scheme), schemeName(kind));
    }
    for (auto cause = static_cast<std::uint8_t>(LinkFailCause::None);
         cause <= static_cast<std::uint8_t>(LinkFailCause::Other); ++cause) {
        const char* name = linkFailCauseName(static_cast<LinkFailCause>(cause));
        event.setFailCause(name);
        EXPECT_EQ(std::string_view(event.failCause), name);
    }
}

/// Keeps every other leg it is asked to store (a single-threaded priming
/// run stores in canonical order), so a later run mixes hits and misses.
class HalfStore : public LegResultSource {
public:
    bool lookup(const Digest256& key, LegResult& out) override {
        const std::scoped_lock lock(mutex_);
        const auto it = results_.find(key);
        if (it == results_.end()) return false;
        out = it->second;
        return true;
    }
    void store(const Digest256& key, const LegResult& value) override {
        const std::scoped_lock lock(mutex_);
        if (stores_++ % 2 == 0) results_[key] = value;
    }

private:
    std::mutex mutex_;
    std::size_t stores_ = 0;
    std::map<Digest256, LegResult> results_;
};

/// One finished leg as every sink reports it: grid coordinates, path flags
/// and span id.
std::string legKey(const JsonValue& line, const char* replayedKey) {
    const JsonValue* replayed = line.find(replayedKey);
    const JsonValue* cached = line.find("cached");
    return line.stringOr("benchmark", "?") + "/" + line.stringOr("scheme", "?") + "@" +
           std::to_string(static_cast<int>(line.numberOr("mv", -1.0))) + "#" +
           std::to_string(static_cast<int>(line.numberOr("trial", -1.0))) +
           (replayed != nullptr && replayed->asBool() ? " replayed" : "") +
           (cached != nullptr && cached->asBool() ? " cached" : "") + " span " +
           line.stringOr("span", "?");
}

// The journal, the job trace and the flight recorder are fed the same
// LegEvent, so each finished leg reads the same in all three.
TEST(SweepJobScope, JournalTraceAndFlightRecorderAgreeOnEveryFinishedLeg) {
    const std::string journalPath = tempPath("journal_agree.ndjson");
    const std::string flightPath = tempPath("flight_agree.json");
    obs::LegJournal journal(journalPath);
    obs::FlightRecorder::Options flightOptions;
    flightOptions.path = flightPath;
    obs::FlightRecorder& flight = obs::FlightRecorder::install(flightOptions);
    obs::JobTraceStore::global().clear();
    const obs::TraceContext trace = obs::makeRootContext("agree");

    // A store primed with every other leg mixes cached and replayed legs.
    HalfStore store;
    SweepConfig priming = tinySweep(1);
    priming.resultSource = &store;
    (void)runSweep(priming);
    SweepConfig config = tinySweep(2);
    config.resultSource = &store;
    std::size_t legsRun = 0;
    config.onProgress = [&legsRun](const SweepProgress& tick) { legsRun = tick.legsTotal; };
    {
        const SweepJobScope scope(config, "agree", {nullptr, &journal, &flight, trace});
        (void)runSweep(config);
    }
    journal.close();
    ASSERT_GT(legsRun, 0u);
    ASSERT_TRUE(flight.dumpNow("test", "agree"));

    // Journal: leg index -> key; every span id is the leg's child span.
    std::map<std::uint32_t, std::string> journalLegs;
    std::ifstream in(journalPath);
    std::string line;
    while (std::getline(in, line)) {
        const JsonValue doc = parseJson(line);
        if (doc.stringOr("ev", "") != "finished") continue;
        const auto leg = static_cast<std::uint32_t>(doc.numberOr("leg", -1.0));
        EXPECT_EQ(doc.stringOr("span", ""), obs::spanIdHex(obs::childSpanId(trace, leg)));
        EXPECT_TRUE(journalLegs.emplace(leg, legKey(doc, "replay")).second) << line;
    }
    EXPECT_EQ(journalLegs.size(), legsRun);

    // Job trace: the same legs, keyed by span id.
    std::set<std::string> journalKeys;
    for (const auto& [leg, key] : journalLegs) journalKeys.insert(key);
    std::set<std::string> traceKeys;
    std::size_t cachedSpans = 0;
    const JsonValue traceDoc = parseJson(obs::JobTraceStore::global().toChromeJson("agree"));
    const JsonValue* events = traceDoc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    for (const JsonValue& event : events->items) {
        if (event.stringOr("cat", "").rfind("leg", 0) != 0) continue;
        const JsonValue* args = event.find("args");
        ASSERT_NE(args, nullptr);
        traceKeys.insert(legKey(*args, "replayed"));
        if (event.stringOr("cat", "") == "leg,cached") ++cachedSpans;
    }
    EXPECT_EQ(traceKeys, journalKeys);
    EXPECT_GT(cachedSpans, 0u);
    EXPECT_LT(cachedSpans, legsRun);

    // Flight ring: every resident finished entry matches the journal's leg
    // (the dump carries grid coordinates, not path flags or span ids).
    const JsonValue dump = parseJson(slurp(flightPath));
    const JsonValue* ring = dump.find("events");
    ASSERT_NE(ring, nullptr);
    std::size_t flightFinished = 0;
    for (const JsonValue& entry : ring->items) {
        if (entry.stringOr("ev", "") != "finished") continue;
        ++flightFinished;
        const auto leg = static_cast<std::uint32_t>(entry.numberOr("leg", -1.0));
        ASSERT_TRUE(journalLegs.contains(leg)) << leg;
        const std::string coordinates = legKey(entry, "replay");
        EXPECT_EQ(journalLegs[leg].substr(0, journalLegs[leg].find(' ')),
                  coordinates.substr(0, coordinates.find(' ')));
    }
    EXPECT_EQ(flightFinished, legsRun); // the 512-slot ring kept every event
    obs::JobTraceStore::global().clear();
    std::remove(journalPath.c_str());
    std::remove(flightPath.c_str());
}

/// A result source that answers every lookup with one leg result, so a
/// sweep of any size finishes every leg from the store.
class EveryLegCached : public LegResultSource {
public:
    explicit EveryLegCached(const LegResult& result) : result_(result) {}
    bool lookup(const Digest256&, LegResult& out) override {
        out = result_;
        return true;
    }
    void store(const Digest256&, const LegResult&) override {}

private:
    LegResult result_;
};

/// Captures the first leg result a sweep stores.
class FirstLegResult : public LegResultSource {
public:
    bool lookup(const Digest256&, LegResult&) override { return false; }
    void store(const Digest256&, const LegResult& value) override {
        const std::scoped_lock lock(mutex_);
        if (!result.has_value()) result = value;
    }
    std::optional<LegResult> result;

private:
    std::mutex mutex_;
};

// A journal's enqueued and started events fill the leg lane, never the
// timeline lane the job's leg spans live in: at one thread, where one slot
// records every leg's events, a grid whose two leg events alone would fill
// a timeline lane still renders one leg span per leg.
TEST(SweepJobScope, JournalAtOneThreadKeepsOneLegSpanPerLeg) {
    FirstLegResult first;
    SweepConfig priming = tinySweep(1);
    priming.trials = 1;
    priming.resultSource = &first;
    (void)runSweep(priming);
    ASSERT_TRUE(first.result.has_value());
    EveryLegCached store(*first.result);

    const std::string journalPath = tempPath("journal_one_thread.ndjson");
    obs::LegJournal journal(journalPath);
    obs::JobTraceStore::global().clear();
    SweepConfig config = tinySweep(1);
    config.trials = static_cast<std::uint32_t>(obs::kTimelineLaneEvents / 8 + 1);
    config.resultSource = &store;
    std::size_t legsRun = 0;
    config.onProgress = [&legsRun](const SweepProgress& tick) { legsRun = tick.legsTotal; };
    {
        const SweepJobScope scope(config, "one-thread",
                                  {nullptr, &journal, nullptr, obs::makeRootContext("one-thread")});
        (void)runSweep(config);
    }
    journal.close();
    ASSERT_GT(2 * legsRun, obs::kTimelineLaneEvents) << "started + finished overflow a lane";
    EXPECT_EQ(journal.written() + journal.dropped(), 3 * legsRun);

    const JsonValue doc = parseJson(obs::JobTraceStore::global().toChromeJson("one-thread"));
    EXPECT_EQ(doc.numberOr("droppedSpans", -1.0), 0.0);
    const JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::set<std::string> legSpans;
    for (const JsonValue& event : events->items) {
        if (event.stringOr("cat", "").rfind("leg", 0) == 0) {
            EXPECT_TRUE(legSpans.insert(event.find("args")->stringOr("span", "")).second);
        }
    }
    EXPECT_EQ(legSpans.size(), legsRun);
    obs::JobTraceStore::global().clear();
    std::remove(journalPath.c_str());
}

// The scope closes a job's observers on the exception path too: after a
// leg fails inside runSweep, trace collection has stopped, the job's
// timeline is closed, and the board reports the job done.
TEST(SweepJobScope, AJobThatThrowsInsideRunSweepStillClosesItsObservers) {
    obs::JobTraceStore::global().clear();
    obs::ProgressBoard board;
    SweepConfig config = tinySweep(2);
    config.failAtLeg = 3;
    const obs::TraceContext trace = obs::makeRootContext("throws");
    EXPECT_THROW(
        {
            const SweepJobScope scope(config, "throws", {.board = &board, .trace = trace});
            EXPECT_TRUE(obs::JobTraceStore::collecting());
            (void)runSweep(config);
        },
        ContractViolation);
    EXPECT_FALSE(obs::JobTraceStore::collecting());
    const JsonValue traceDoc = parseJson(obs::JobTraceStore::global().toChromeJson("throws"));
    const JsonValue* open = traceDoc.find("open");
    ASSERT_NE(open, nullptr);
    EXPECT_FALSE(open->asBool());
    const JsonValue boardDoc = parseJson(board.toJson());
    const JsonValue* done = boardDoc.find("done");
    ASSERT_NE(done, nullptr);
    EXPECT_TRUE(done->asBool());
    obs::JobTraceStore::global().clear();
}

} // namespace
} // namespace voltcache
