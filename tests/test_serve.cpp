// Tests for the sweep-as-a-service layer (src/serve) and its foundations:
// the SHA-256 implementation (FIPS 180-4 vectors), the content keys
// (module/leg digests — stability, and sensitivity to every result-affecting
// config field), the LegResult wire codec, the LRU + on-disk LegStore
// (persistence across reopen, corrupted-record rejection, eviction), the
// NDJSON protocol (parsing, framing, bounded line reader), cached-sweep
// byte-identity against cold and plain sweeps, and an in-process end-to-end
// server round trip with a warm second submission.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/json_parse.h"
#include "common/socket.h"
#include "common/version.h"
#include "core/report.h"
#include "core/sweep.h"
#include "cpu/simulator.h"
#include "power/dvfs.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/store.h"
#include "workload/workload.h"

namespace voltcache {
namespace {

using literals::operator""_mV;

// ---- SHA-256 ----

TEST(Sha256, Fips180Vectors) {
    EXPECT_EQ(digestToHex(Sha256::digest("")),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(digestToHex(Sha256::digest("abc")),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    // Two-block message (FIPS 180-4 appendix B.2).
    EXPECT_EQ(digestToHex(Sha256::digest(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    // Exactly one padding-boundary block (55/56/64 bytes).
    EXPECT_EQ(digestToHex(Sha256::digest(std::string(56, 'a'))),
              digestToHex(Sha256::digest(std::string(56, 'a'))));
}

TEST(Sha256, IncrementalUpdatesMatchOneShot) {
    Sha256 sha;
    sha.update("ab");
    sha.update("c");
    EXPECT_EQ(digestToHex(sha.finish()), digestToHex(Sha256::digest("abc")));
    // Long input crossing many block boundaries, fed in ragged chunks.
    const std::string big(1000, 'x');
    Sha256 ragged;
    for (std::size_t i = 0; i < big.size(); i += 77) {
        ragged.update(std::string_view(big).substr(i, 77));
    }
    EXPECT_EQ(digestToHex(ragged.finish()), digestToHex(Sha256::digest(big)));
}

TEST(HashWriter, LengthPrefixingPreventsFieldSliding) {
    // ("ab","c") and ("a","bc") must not collide: strings are
    // length-prefixed, never concatenated raw.
    HashWriter left;
    left.str("ab");
    left.str("c");
    HashWriter right;
    right.str("a");
    right.str("bc");
    EXPECT_NE(left.finish(), right.finish());
}

// ---- content keys ----

TEST(ContentKey, ModuleDigestStableAndDiscriminating) {
    const Module crc = buildBenchmark("crc32", WorkloadScale::Tiny);
    const Module crcAgain = buildBenchmark("crc32", WorkloadScale::Tiny);
    EXPECT_EQ(moduleDigest(crc), moduleDigest(crcAgain));
    EXPECT_NE(moduleDigest(crc),
              moduleDigest(buildBenchmark("basicmath", WorkloadScale::Tiny)));
    EXPECT_NE(moduleDigest(crc),
              moduleDigest(buildBenchmark("crc32", WorkloadScale::Small)));
}

TEST(ContentKey, LegDigestSensitiveToEveryResultAffectingField) {
    const Digest256 module = moduleDigest(buildBenchmark("crc32", WorkloadScale::Tiny));
    const OperatingPoint point = DvfsTable::at(400_mV);
    const SystemConfig base;
    const Digest256 reference =
        legDigest(module, SchemeKind::FfwBbr, point, 42, base);

    // Same inputs → same key, across independent computations.
    EXPECT_EQ(reference, legDigest(module, SchemeKind::FfwBbr, point, 42, base));

    // Scheme, operating point, and chip seed.
    EXPECT_NE(reference,
              legDigest(module, SchemeKind::SimpleWordDisable, point, 42, base));
    EXPECT_NE(reference, legDigest(module, SchemeKind::FfwBbr,
                                   DvfsTable::at(440_mV), 42, base));
    EXPECT_NE(reference, legDigest(module, SchemeKind::FfwBbr, point, 43, base));

    // Every SystemConfig field that changes simulated results.
    SystemConfig changed = base;
    changed.faultRateScale = 2.0;
    EXPECT_NE(reference, legDigest(module, SchemeKind::FfwBbr, point, 42, changed));
    changed = base;
    changed.maxInstructions = 1000;
    EXPECT_NE(reference, legDigest(module, SchemeKind::FfwBbr, point, 42, changed));
    changed = base;
    changed.maxBlockWords += 1;
    EXPECT_NE(reference, legDigest(module, SchemeKind::FfwBbr, point, 42, changed));
    changed = base;
    changed.dramLatencyNs += 1.0;
    EXPECT_NE(reference, legDigest(module, SchemeKind::FfwBbr, point, 42, changed));
    changed = base;
    changed.energy.l1AccessEnergy *= 1.5;
    EXPECT_NE(reference, legDigest(module, SchemeKind::FfwBbr, point, 42, changed));
    changed = base;
    changed.pipeline.mispredictPenalty += 1;
    EXPECT_NE(reference, legDigest(module, SchemeKind::FfwBbr, point, 42, changed));
    changed = base;
    changed.pipeline.predictor.bhtEntries *= 2;
    EXPECT_NE(reference, legDigest(module, SchemeKind::FfwBbr, point, 42, changed));
    changed = base;
    changed.l1Org.associativity = 2;
    EXPECT_NE(reference, legDigest(module, SchemeKind::FfwBbr, point, 42, changed));

    // ...and no field that cannot: every leg runs under
    // SystemConfig::maxInstructions, which overrides the pipeline's copy.
    changed = base;
    changed.pipeline.maxInstructions = 1000;
    EXPECT_EQ(reference, legDigest(module, SchemeKind::FfwBbr, point, 42, changed));

    // An operating point with a perturbed pFailBit (fault-model parameter).
    OperatingPoint perturbed = point;
    perturbed.pFailBit *= 1.01;
    EXPECT_NE(reference, legDigest(module, SchemeKind::FfwBbr, perturbed, 42, base));
}

// ---- LegResult codec ----

LegResult sampleResult() {
    LegResult value;
    value.normRuntime = 1.25;
    value.l2PerKilo = 17.5;
    value.normEpi = 0.75;
    value.busyFrac = 0.5;
    value.ifetchFrac = 0.25;
    value.dmemFrac = 0.125;
    value.branchFrac = 0.125;
    value.forensics.hasFfw = true;
    value.forensics.ffwWindowSize[8] = 1000;
    value.forensics.ffwRecenters = 7;
    value.forensics.hasBbr = true;
    value.forensics.bbrChunkWords[3] = 12;
    value.forensics.bbrBlocksPlaced = 99;
    return value;
}

TEST(LegResultCodec, RoundTrip) {
    const LegResult value = sampleResult();
    const std::string payload = serve::encodeLegResult(value);
    EXPECT_EQ(payload.size(), serve::kLegPayloadBytes);
    LegResult decoded;
    ASSERT_TRUE(serve::decodeLegResult(payload, decoded));
    EXPECT_EQ(serve::encodeLegResult(decoded), payload);
    EXPECT_DOUBLE_EQ(decoded.normRuntime, value.normRuntime);
    EXPECT_EQ(decoded.forensics.ffwWindowSize[8], 1000u);
    EXPECT_EQ(decoded.forensics.bbrBlocksPlaced, 99u);
}

TEST(LegResultCodec, RejectsWrongSizeAndBadEnum) {
    LegResult out;
    EXPECT_FALSE(serve::decodeLegResult("short", out));
    std::string payload = serve::encodeLegResult(sampleResult());
    payload.back() = '\x7f'; // failCause out of range
    EXPECT_FALSE(serve::decodeLegResult(payload, out));
}

// ---- LegStore ----

std::string freshDir(const char* stem) {
    const std::string dir = testing::TempDir() + stem;
    std::filesystem::remove_all(dir);
    return dir;
}

Digest256 keyFor(std::uint8_t tag) {
    Digest256 key{};
    key[0] = tag;
    return key;
}

TEST(LegStore, HitMissAndStats) {
    serve::LegStore store({.byteBudget = 1 << 20, .directory = ""});
    LegResult out;
    EXPECT_FALSE(store.lookup(keyFor(1), out));
    store.store(keyFor(1), sampleResult());
    ASSERT_TRUE(store.lookup(keyFor(1), out));
    EXPECT_DOUBLE_EQ(out.l2PerKilo, 17.5);
    const serve::LegStore::Stats stats = store.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.inserts, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(LegStore, EvictsLeastRecentlyUsedUnderByteBudget) {
    // Budget for ~2 entries; inserting 3 must evict the least recently used.
    const std::uint64_t entry = serve::LegStore::entryBytes(sampleResult());
    serve::LegStore store({.byteBudget = 2 * entry + entry / 2, .directory = ""});
    store.store(keyFor(1), sampleResult());
    store.store(keyFor(2), sampleResult());
    LegResult out;
    ASSERT_TRUE(store.lookup(keyFor(1), out)); // touch 1 → 2 becomes LRU
    store.store(keyFor(3), sampleResult());
    EXPECT_TRUE(store.lookup(keyFor(1), out));
    EXPECT_FALSE(store.lookup(keyFor(2), out));
    EXPECT_TRUE(store.lookup(keyFor(3), out));
    EXPECT_GE(store.stats().evictions, 1u);
}

TEST(LegStore, SegmentSurvivesReopen) {
    const std::string dir = freshDir("legstore_reopen");
    {
        serve::LegStore store({.byteBudget = 1 << 20, .directory = dir});
        store.store(keyFor(1), sampleResult());
        store.store(keyFor(2), sampleResult());
    } // destructor flushes
    serve::LegStore reopened({.byteBudget = 1 << 20, .directory = dir});
    EXPECT_EQ(reopened.stats().loaded, 2u);
    EXPECT_EQ(reopened.stats().rejected, 0u);
    LegResult out;
    EXPECT_TRUE(reopened.lookup(keyFor(1), out));
    EXPECT_TRUE(reopened.lookup(keyFor(2), out));
}

TEST(LegStore, RejectsCorruptedRecordOnLoad) {
    const std::string dir = freshDir("legstore_corrupt");
    {
        serve::LegStore store({.byteBudget = 1 << 20, .directory = dir});
        store.store(keyFor(1), sampleResult());
        store.store(keyFor(2), sampleResult());
    }
    // Flip one byte inside the FIRST record's payload (after the 12-byte
    // header and 32-byte key).
    const std::string path = dir + "/legs.vcs";
    {
        std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(file.is_open());
        file.seekp(12 + 32 + 8);
        char byte = 0;
        file.read(&byte, 1);
        file.seekp(12 + 32 + 8);
        byte = static_cast<char>(byte ^ 0x55);
        file.write(&byte, 1);
    }
    serve::LegStore reopened({.byteBudget = 1 << 20, .directory = dir});
    EXPECT_EQ(reopened.stats().loaded, 1u);
    EXPECT_EQ(reopened.stats().rejected, 1u);
    LegResult out;
    EXPECT_FALSE(reopened.lookup(keyFor(1), out)); // the corrupted record
    EXPECT_TRUE(reopened.lookup(keyFor(2), out));  // framing survived
}

TEST(LegStore, DiscardsForeignOrStaleSegmentWholesale) {
    const std::string dir = freshDir("legstore_stale");
    std::filesystem::create_directories(dir);
    {
        std::ofstream file(dir + "/legs.vcs", std::ios::binary);
        file << "NOTAMAGIC-and-some-garbage";
    }
    serve::LegStore store({.byteBudget = 1 << 20, .directory = dir});
    EXPECT_EQ(store.stats().loaded, 0u);
    EXPECT_GE(store.stats().rejected, 1u);
    // The store stays usable and the segment was re-initialized.
    store.store(keyFor(9), sampleResult());
    store.flush();
    serve::LegStore reopened({.byteBudget = 1 << 20, .directory = dir});
    EXPECT_EQ(reopened.stats().loaded, 1u);
}

TEST(LegStore, RoundTripsPlainAndForensicsEntriesExactly) {
    LegResult plain = sampleResult();
    plain.forensics = LegForensics{};
    plain.linkFailed = true;
    LegResult failed = sampleResult();
    failed.forensics.failCause = LinkFailCause::NoChunk;
    failed.forensics.bbrDisplacement[16] = 3;
    EXPECT_LT(serve::LegStore::entryBytes(plain), serve::LegStore::entryBytes(failed));
    serve::LegStore store({.byteBudget = 1 << 20, .directory = ""});
    store.store(keyFor(1), plain);
    store.store(keyFor(2), sampleResult());
    store.store(keyFor(3), failed);
    LegResult out;
    ASSERT_TRUE(store.lookup(keyFor(1), out));
    EXPECT_EQ(serve::encodeLegResult(out), serve::encodeLegResult(plain));
    ASSERT_TRUE(store.lookup(keyFor(2), out));
    EXPECT_EQ(serve::encodeLegResult(out), serve::encodeLegResult(sampleResult()));
    ASSERT_TRUE(store.lookup(keyFor(3), out));
    EXPECT_EQ(serve::encodeLegResult(out), serve::encodeLegResult(failed));
    // Overwriting a key swaps its forensics in or out.
    store.store(keyFor(2), plain);
    ASSERT_TRUE(store.lookup(keyFor(2), out));
    EXPECT_EQ(serve::encodeLegResult(out), serve::encodeLegResult(plain));
    EXPECT_EQ(store.stats().bytes, 2 * serve::LegStore::entryBytes(plain) +
                                       serve::LegStore::entryBytes(failed));
}

TEST(LegStore, ReusedSlotNeverLeaksThePreviousForensics) {
    LegResult plain = sampleResult();
    plain.forensics = LegForensics{};
    // Room for one forensics entry, or two plain ones.
    serve::LegStore store(
        {.byteBudget = serve::LegStore::entryBytes(sampleResult()), .directory = ""});
    store.store(keyFor(1), sampleResult());
    store.store(keyFor(2), plain); // evicts key 1, freeing its slot
    store.store(keyFor(3), plain); // takes the freed slot
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_EQ(store.stats().entries, 2u);
    LegResult out = sampleResult();
    EXPECT_FALSE(store.lookup(keyFor(1), out));
    for (const std::uint8_t tag : {2, 3}) {
        out = sampleResult();
        ASSERT_TRUE(store.lookup(keyFor(tag), out)) << int(tag);
        EXPECT_EQ(serve::encodeLegResult(out), serve::encodeLegResult(plain)) << int(tag);
    }
}

TEST(LegStore, ManyEntriesSurviveIndexGrowthAndEviction) {
    // Thousands of keys force index growth, then a budget of ~1000 plain
    // entries evicts the oldest; every survivor still maps to its value.
    LegResult plain = sampleResult();
    plain.forensics = LegForensics{};
    serve::LegStore store(
        {.byteBudget = 1000 * serve::LegStore::entryBytes(plain), .directory = ""});
    const auto keyOf = [](std::uint32_t i) { return Sha256::digest(std::to_string(i)); };
    for (std::uint32_t i = 0; i < 5000; ++i) {
        plain.normRuntime = i;
        store.store(keyOf(i), plain);
    }
    EXPECT_EQ(store.stats().entries, 1000u);
    EXPECT_EQ(store.stats().evictions, 4000u);
    LegResult out;
    for (std::uint32_t i = 0; i < 5000; ++i) {
        const bool hit = store.lookup(keyOf(i), out);
        ASSERT_EQ(hit, i >= 4000) << i;
        if (hit) {
            EXPECT_EQ(out.normRuntime, static_cast<double>(i));
        }
    }
}

TEST(LegStore, ReloadsASegmentWrittenByTheRecordEncoder) {
    // A segment laid out by hand from the on-disk format (magic, payload
    // size, then key || payload || SHA-256(key || payload) records), the
    // way every earlier store version wrote it.
    const std::string dir = freshDir("legstore_format");
    std::filesystem::create_directories(dir);
    LegResult plain = sampleResult();
    plain.forensics = LegForensics{};
    const std::vector<std::pair<Digest256, LegResult>> records = {
        {keyFor(1), sampleResult()}, {keyFor(2), plain}};
    {
        std::ofstream file(dir + "/legs.vcs", std::ios::binary);
        file.write("VCLEGST1", 8);
        const char size[4] = {static_cast<char>(serve::kLegPayloadBytes & 0xFF),
                              static_cast<char>(serve::kLegPayloadBytes >> 8), 0, 0};
        file.write(size, 4);
        for (const auto& [key, value] : records) {
            const std::string payload = serve::encodeLegResult(value);
            ASSERT_EQ(payload.size(), 484u);
            Sha256 sha;
            sha.update(key.data(), key.size());
            sha.update(payload);
            const Digest256 digest = sha.finish();
            file.write(reinterpret_cast<const char*>(key.data()), 32);
            file.write(payload.data(), static_cast<std::streamsize>(payload.size()));
            file.write(reinterpret_cast<const char*>(digest.data()), 32);
        }
    }
    serve::LegStore store({.byteBudget = 1 << 20, .directory = dir});
    EXPECT_EQ(store.stats().loaded, 2u);
    EXPECT_EQ(store.stats().rejected, 0u);
    for (const auto& [key, value] : records) {
        LegResult out;
        ASSERT_TRUE(store.lookup(key, out));
        EXPECT_EQ(serve::encodeLegResult(out), serve::encodeLegResult(value));
    }
}

// ---- cached sweeps: byte identity ----

SweepConfig tinyConfig() {
    SweepConfig config;
    config.benchmarks = {"crc32"};
    config.schemes = {SchemeKind::SimpleWordDisable, SchemeKind::FfwBbr};
    config.points = {DvfsTable::at(560_mV), DvfsTable::at(400_mV)};
    config.trials = 2;
    config.scale = WorkloadScale::Tiny;
    config.threads = 2;
    return config;
}

std::string exportJson(const SweepResult& result, const SweepConfig& config) {
    SweepExportMeta meta;
    meta.version = "serve-test"; // fixed: exclude git describe from the diff
    meta.seed = config.baseSeed;
    meta.trials = config.trials;
    meta.scale = "tiny";
    meta.benchmarks = config.benchmarks;
    return sweepResultToJson(result, meta);
}

TEST(CachedSweep, WarmSweepIsByteIdenticalAndFullyCached) {
    const SweepConfig plain = tinyConfig();
    const std::string plainJson = exportJson(runSweep(plain), plain);

    serve::LegStore store({.byteBudget = 64 << 20, .directory = ""});
    SweepConfig cold = tinyConfig();
    cold.resultSource = &store;
    const std::string coldJson = exportJson(runSweep(cold), cold);
    EXPECT_EQ(plainJson, coldJson);
    EXPECT_EQ(store.stats().hits, 0u);
    EXPECT_GT(store.stats().inserts, 0u);

    SweepConfig warm = tinyConfig();
    warm.resultSource = &store;
    SweepProgress last;
    warm.onProgress = [&last](const SweepProgress& progress) { last = progress; };
    const std::string warmJson = exportJson(runSweep(warm), warm);
    EXPECT_EQ(plainJson, warmJson);
    EXPECT_EQ(last.legsCached, last.legsTotal);
    EXPECT_GT(last.legsTotal, 0u);
}

TEST(CachedSweep, PartialOverlapStaysByteIdentical) {
    // Warm the store with trials=2, then run trials=3: the first two trials
    // of every point hit, the third misses — the result must still match a
    // plain trials=3 sweep byte for byte.
    serve::LegStore store({.byteBudget = 64 << 20, .directory = ""});
    SweepConfig first = tinyConfig();
    first.resultSource = &store;
    (void)runSweep(first);

    SweepConfig bigger = tinyConfig();
    bigger.trials = 3;
    const std::string plainJson = exportJson(runSweep(bigger), bigger);

    SweepConfig mixed = tinyConfig();
    mixed.trials = 3;
    mixed.resultSource = &store;
    SweepProgress last;
    mixed.onProgress = [&last](const SweepProgress& progress) { last = progress; };
    const std::string mixedJson = exportJson(runSweep(mixed), mixed);
    EXPECT_EQ(plainJson, mixedJson);
    EXPECT_GT(last.legsCached, 0u);
    EXPECT_LT(last.legsCached, last.legsTotal);
}

TEST(CachedSweep, ObserversDisableTheStore) {
    struct NullObserver : TraceObserver {};
    NullObserver observer;
    serve::LegStore store({.byteBudget = 64 << 20, .directory = ""});
    SweepConfig config = tinyConfig();
    config.resultSource = &store;
    config.systemTemplate.observers.push_back(&observer);
    config.threads = 1; // observers are not thread-safe
    (void)runSweep(config);
    // Observers must watch real execution: the store is never consulted.
    EXPECT_EQ(store.stats().hits + store.stats().misses + store.stats().inserts, 0u);
}

// ---- protocol ----

TEST(Protocol, ParsesJobsWithPerOpDefaults) {
    const serve::Request sweep = serve::parseRequest(
        R"({"op":"sweep","id":"a","benchmarks":"crc32","mv":"560,400","progress":true})");
    ASSERT_EQ(sweep.kind, serve::Request::Kind::Job);
    EXPECT_EQ(sweep.job.trials, 3u);
    EXPECT_TRUE(sweep.job.progress);
    EXPECT_EQ(sweep.job.mv, "560,400");

    const serve::Request run = serve::parseRequest(R"({"op":"run"})");
    ASSERT_EQ(run.kind, serve::Request::Kind::Job);
    EXPECT_EQ(run.job.trials, 1u);

    EXPECT_EQ(serve::parseRequest(R"({"op":"ping"})").kind,
              serve::Request::Kind::Ping);
    EXPECT_EQ(serve::parseRequest("not json").kind, serve::Request::Kind::Invalid);
    EXPECT_EQ(serve::parseRequest(R"({"op":"launch-missiles"})").kind,
              serve::Request::Kind::Invalid);
}

TEST(Protocol, JobJsonRoundTrips) {
    serve::JobRequest job;
    job.op = "verify";
    job.id = "j1";
    job.benchmarks = "crc32,basicmath";
    job.mv = "560";
    job.trials = 5;
    job.seed = 777;
    job.progress = true;
    const serve::Request parsed = serve::parseRequest(serve::jobToJson(job));
    ASSERT_EQ(parsed.kind, serve::Request::Kind::Job);
    EXPECT_EQ(parsed.job.op, "verify");
    EXPECT_EQ(parsed.job.id, "j1");
    EXPECT_EQ(parsed.job.benchmarks, "crc32,basicmath");
    EXPECT_EQ(parsed.job.trials, 5u);
    EXPECT_EQ(parsed.job.seed, 777u);
    EXPECT_TRUE(parsed.job.progress);
}

// Integer fields are read from their source token, never through double:
// a 64-bit seed keeps every digit, and anything that is not a plain
// non-negative integer in the field's range is rejected with the job's id.
TEST(Protocol, IntegerFieldsAreExactOrRejected) {
    const serve::Request big = serve::parseRequest(
        R"({"op":"sweep","seed":9007199254740993,"maxInstructions":18446744073709551615})");
    ASSERT_EQ(big.kind, serve::Request::Kind::Job);
    EXPECT_EQ(big.job.seed, 9007199254740993ull); // 2^53 + 1, not rounded
    EXPECT_EQ(big.job.maxInstructions, 18446744073709551615ull);

    for (const char* bad :
         {R"({"op":"sweep","id":"b","seed":-1})", R"({"op":"sweep","id":"b","seed":1.5})",
          R"({"op":"sweep","id":"b","seed":1e30})",
          R"({"op":"sweep","id":"b","seed":18446744073709551616})",
          R"({"op":"sweep","id":"b","trials":4294967296})",
          R"({"op":"sweep","id":"b","threads":"2"})"}) {
        const serve::Request request = serve::parseRequest(bad);
        EXPECT_EQ(request.kind, serve::Request::Kind::Invalid) << bad;
        EXPECT_EQ(request.job.id, "b") << bad;
        EXPECT_NE(request.error.find("integer"), std::string::npos) << bad;
    }
}

TEST(Protocol, LineReaderSplitsAndBounds) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    net::Socket reader(fds[0]);
    net::Socket writer(fds[1]);
    ASSERT_TRUE(writer.sendAll("alpha\nbeta\r\ngam"));
    serve::LineReader lines(reader, 64);
    std::string line;
    ASSERT_EQ(lines.next(line), serve::LineReader::Status::Line);
    EXPECT_EQ(line, "alpha");
    ASSERT_EQ(lines.next(line), serve::LineReader::Status::Line);
    EXPECT_EQ(line, "beta"); // '\r' stripped
    ASSERT_TRUE(writer.sendAll("ma\n"));
    ASSERT_EQ(lines.next(line), serve::LineReader::Status::Line);
    EXPECT_EQ(line, "gamma");
    writer.close();
    EXPECT_EQ(lines.next(line), serve::LineReader::Status::Eof);

    // Overflow: a line longer than the bound is rejected, not buffered.
    int fds2[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds2), 0);
    net::Socket reader2(fds2[0]);
    net::Socket writer2(fds2[1]);
    ASSERT_TRUE(writer2.sendAll(std::string(100, 'x')));
    serve::LineReader bounded(reader2, 16);
    EXPECT_EQ(bounded.next(line), serve::LineReader::Status::Overflow);

    // The bound holds even when the over-long line's newline arrives in the
    // same read as the line itself.
    int fds3[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds3), 0);
    net::Socket reader3(fds3[0]);
    net::Socket writer3(fds3[1]);
    ASSERT_TRUE(writer3.sendAll(std::string(100, 'x') + "\n"));
    serve::LineReader exact(reader3, 16);
    EXPECT_EQ(exact.next(line), serve::LineReader::Status::Overflow);

    // A ~1 MB line sent in small pieces reads back intact.
    int fds4[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds4), 0);
    net::Socket reader4(fds4[0]);
    net::Socket writer4(fds4[1]);
    std::string big;
    for (std::size_t i = 0; big.size() < (1U << 20); ++i) big += std::to_string(i) + ',';
    std::thread sender([&] {
        for (std::size_t at = 0; at < big.size(); at += 1000) {
            EXPECT_TRUE(writer4.sendAll(std::string_view(big).substr(at, 1000)));
        }
        EXPECT_TRUE(writer4.sendAll("\ntail\n"));
    });
    serve::LineReader large(reader4, serve::kMaxResponseLineBytes);
    std::string got;
    EXPECT_EQ(large.next(got), serve::LineReader::Status::Line);
    EXPECT_TRUE(got == big) << "read " << got.size() << " of " << big.size() << " bytes";
    EXPECT_EQ(large.next(line), serve::LineReader::Status::Line);
    EXPECT_EQ(line, "tail");
    sender.join();
}

// ---- socket layer ----

int noDelayOf(const net::Socket& socket) {
    int value = -1;
    socklen_t size = sizeof(value);
    EXPECT_EQ(::getsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &value, &size), 0);
    return value;
}

TEST(Socket, ConnectedSocketsHaveNoDelay) {
    net::TcpListener listener(0);
    net::Socket client =
        net::tcpConnect("127.0.0.1", listener.port(), std::chrono::milliseconds(5000));
    net::Socket accepted = listener.accept(std::chrono::milliseconds(5000));
    ASSERT_TRUE(accepted.valid());
    EXPECT_EQ(noDelayOf(client), 1);
    EXPECT_EQ(noDelayOf(accepted), 1);
}

TEST(Socket, GatheredSendSurvivesShortWrites) {
    net::TcpListener listener(0);
    net::Socket sender =
        net::tcpConnect("127.0.0.1", listener.port(), std::chrono::milliseconds(5000));
    net::Socket receiver = listener.accept(std::chrono::milliseconds(5000));
    ASSERT_TRUE(receiver.valid());
    // A tiny send buffer and a send timeout shorter than the paced drain
    // below (~5 MB/s): each sendmsg returns after a partial write, mid-part.
    const int small = 4096;
    ::setsockopt(sender.fd(), SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
    sender.setSendTimeout(std::chrono::milliseconds(100));
    receiver.setRecvTimeout(std::chrono::milliseconds(5000));
    std::vector<std::string> pieces = {"<", std::string(700000, 'a'), "", "|",
                                       std::string(400000, 'b'), std::string(17, 'c')};
    for (std::size_t i = 0; i < pieces[1].size(); i += 997) pieces[1][i] = 'A';
    for (std::size_t i = 0; i < pieces[4].size(); i += 1009) pieces[4][i] = 'B';
    std::string expected;
    std::vector<std::string_view> parts;
    for (const std::string& piece : pieces) {
        expected += piece;
        parts.push_back(piece);
    }
    std::string received;
    std::thread drain([&receiver, &received, total = expected.size()] {
        while (received.size() < total) {
            if (receiver.recvSome(received, 1024) != net::Socket::RecvStatus::Data) return;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });
    const bool sent = sender.sendAll(parts);
    drain.join();
    EXPECT_TRUE(sent);
    EXPECT_EQ(received.size(), expected.size());
    EXPECT_TRUE(received == expected);
}

// ---- end-to-end server ----

struct EventLog {
    std::vector<JsonValue> events;
    std::string document;
};

EventLog submitJob(std::uint16_t port, const std::string& requestLine) {
    net::Socket socket =
        net::tcpConnect("127.0.0.1", port, std::chrono::milliseconds(60000));
    EXPECT_TRUE(socket.sendAll(requestLine + "\n"));
    serve::LineReader reader(socket, serve::kMaxResponseLineBytes);
    EventLog log;
    std::string line;
    while (reader.next(line) == serve::LineReader::Status::Line) {
        const JsonValue event = parseJson(line);
        const std::string kind = event.stringOr("ev", "");
        log.events.push_back(event);
        if (kind == "result") {
            EXPECT_EQ(reader.next(log.document), serve::LineReader::Status::Line);
            break;
        }
        // pong / stats / error are terminal for their request; only
        // accepted / progress precede more events.
        if (kind != "accepted" && kind != "progress") break;
    }
    return log;
}

const JsonValue* lastResult(const EventLog& log) {
    for (const JsonValue& event : log.events) {
        if (event.stringOr("ev", "") == "result") return &event;
    }
    return nullptr;
}

TEST(Server, WarmSecondSubmissionIsByteIdenticalAndMostlyHits) {
    serve::ServeOptions options;
    options.port = 0;
    options.threads = 2;
    serve::Server server(options);
    std::thread runner([&server] { server.run(); });

    const std::string request =
        R"({"op":"sweep","id":"one","benchmarks":"crc32","scale":"tiny","trials":1})";
    const EventLog first = submitJob(server.port(), request);
    const EventLog second = submitJob(server.port(), request);
    server.requestStop();
    runner.join();

    const JsonValue* firstResult = lastResult(first);
    const JsonValue* secondResult = lastResult(second);
    ASSERT_NE(firstResult, nullptr);
    ASSERT_NE(secondResult, nullptr);
    EXPECT_FALSE(first.document.empty());
    EXPECT_EQ(first.document, second.document);
    EXPECT_DOUBLE_EQ(firstResult->numberOr("hitRate", -1.0), 0.0);
    EXPECT_GE(secondResult->numberOr("hitRate", 0.0), 0.9);
    EXPECT_GT(secondResult->numberOr("legsCached", 0.0), 0.0);
    EXPECT_EQ(server.totals().jobsCompleted, 2u);
}

TEST(Server, AnswersPingRejectsGarbageAndBoundsRequests) {
    serve::ServeOptions options;
    options.port = 0;
    serve::Server server(options);
    std::thread runner([&server] { server.run(); });

    {
        const EventLog pong = submitJob(server.port(), R"({"op":"ping"})");
        ASSERT_FALSE(pong.events.empty());
        EXPECT_EQ(pong.events.front().stringOr("ev", ""), "pong");
    }
    {
        const EventLog error = submitJob(server.port(), "this is not json");
        ASSERT_FALSE(error.events.empty());
        EXPECT_EQ(error.events.front().stringOr("ev", ""), "error");
    }
    {
        // An oversized request line draws an error and a close, never a hang.
        const EventLog oversized =
            submitJob(server.port(), std::string(serve::kMaxRequestLineBytes + 10, 'z'));
        ASSERT_FALSE(oversized.events.empty());
        EXPECT_EQ(oversized.events.front().stringOr("ev", ""), "error");
    }
    {
        const EventLog stats = submitJob(server.port(), R"({"op":"stats"})");
        ASSERT_FALSE(stats.events.empty());
        EXPECT_EQ(stats.events.front().stringOr("ev", ""), "stats");
    }

    server.requestStop();
    runner.join();
}

// Malformed integers draw an error event for that job and leave the daemon
// serving: the next valid job — at seed 2^53 + 1, which a double would have
// rounded onto 2^53's chips — matches a direct sweep at that exact seed.
TEST(Server, RejectsNonIntegerFieldsThenServesTheExactSeed) {
    serve::ServeOptions options;
    options.port = 0;
    options.threads = 2;
    serve::Server server(options);
    std::thread runner([&server] { server.run(); });
    for (const char* value : {"-1", "1.5", "1e30"}) {
        const EventLog log = submitJob(
            server.port(), std::string(R"({"op":"sweep","id":"bad","seed":)") + value + "}");
        ASSERT_EQ(log.events.size(), 1u) << value;
        EXPECT_EQ(log.events.front().stringOr("ev", ""), "error") << value;
        EXPECT_EQ(log.events.front().stringOr("id", ""), "bad") << value;
    }
    const EventLog served = submitJob(
        server.port(), R"({"op":"sweep","id":"ok","benchmarks":"crc32","scale":"tiny",)"
                       R"("mv":"400","trials":2,"seed":9007199254740993})");
    server.requestStop();
    runner.join();

    SweepConfig direct;
    direct.benchmarks = {"crc32"};
    direct.points = {DvfsTable::at(400_mV)};
    direct.trials = 2;
    direct.scale = WorkloadScale::Tiny;
    direct.baseSeed = 9007199254740993ull;
    SweepExportMeta meta;
    meta.version = std::string(buildVersion());
    meta.seed = direct.baseSeed;
    meta.trials = direct.trials;
    meta.scale = "tiny";
    meta.benchmarks = direct.benchmarks;
    ASSERT_NE(lastResult(served), nullptr);
    EXPECT_EQ(served.document, sweepResultToJson(runSweep(direct), meta));
    EXPECT_EQ(server.totals().jobsCompleted, 1u);
}

// Pings and stats pipelined around jobs on one connection are answered by
// the reader thread while the executor writes results: no reply may split
// a result event from its document, and a job's `accepted` precedes its
// `result`.
TEST(Server, PipelinedRepliesNeverSplitAResultFromItsDocument) {
    serve::ServeOptions options;
    options.port = 0;
    options.threads = 2;
    serve::Server server(options);
    std::thread runner([&server] { server.run(); });
    net::Socket socket =
        net::tcpConnect("127.0.0.1", server.port(), std::chrono::milliseconds(60000));
    constexpr int kJobs = 12;
    std::string jobs;
    for (int job = 0; job < kJobs; ++job) {
        jobs += R"({"op":"sweep","id":"j)" + std::to_string(job) +
                R"(","benchmarks":"crc32","schemes":"simple-wdis","scale":"tiny",)"
                R"("mv":"400","trials":1,"progress":true,"seed":)" +
                std::to_string(100 + job) + "}\n";
    }
    ASSERT_TRUE(socket.sendAll(jobs));
    // Keep the reader thread answering while every result is written.
    std::atomic<bool> done{false};
    std::thread chatter([&socket, &done] {
        std::string batch;
        for (int i = 0; i < 8; ++i) batch += R"({"op":"ping"})" "\n";
        batch += R"({"op":"stats"})" "\n";
        while (!done.load() && socket.sendAll(batch)) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    });

    serve::LineReader reader(socket, serve::kMaxResponseLineBytes);
    std::vector<std::string> accepted;
    std::vector<std::string> results;
    int replies = 0;
    std::string line;
    while (static_cast<int>(results.size()) < kJobs) {
        if (reader.next(line) != serve::LineReader::Status::Line) break;
        const JsonValue event = parseJson(line);
        const std::string kind = event.stringOr("ev", "");
        if (kind == "" || kind == "error") {
            ADD_FAILURE() << "unexpected line: " << line.substr(0, 80);
            break;
        }
        if (kind == "pong" || kind == "stats") ++replies;
        if (kind == "accepted") accepted.push_back(event.stringOr("id", ""));
        if (kind != "result") continue;
        const std::string id = event.stringOr("id", "");
        EXPECT_NE(std::find(accepted.begin(), accepted.end(), id), accepted.end())
            << id << " resulted before it was accepted";
        results.push_back(id);
        std::string document;
        if (reader.next(document) != serve::LineReader::Status::Line ||
            document.size() != static_cast<std::size_t>(event.numberOr("bytes", -1.0))) {
            ADD_FAILURE() << "the line after " << id
                          << "'s result is: " << document.substr(0, 80);
            break;
        }
    }
    done.store(true);
    chatter.join();
    socket.close();
    server.requestStop();
    runner.join();
    EXPECT_EQ(results.size(), static_cast<std::size_t>(kJobs));
    EXPECT_GT(replies, 0);
    EXPECT_EQ(server.totals().jobsCompleted, static_cast<std::uint64_t>(kJobs));
}

TEST(Server, BadJobFieldsReportAnErrorEvent) {
    serve::ServeOptions options;
    options.port = 0;
    serve::Server server(options);
    std::thread runner([&server] { server.run(); });
    const EventLog log = submitJob(
        server.port(), R"({"op":"sweep","id":"bad","scale":"enormous"})");
    bool sawError = false;
    for (const JsonValue& event : log.events) {
        if (event.stringOr("ev", "") == "error") sawError = true;
    }
    EXPECT_TRUE(sawError);
    server.requestStop();
    runner.join();
    EXPECT_EQ(server.totals().jobErrors, 1u);
}

} // namespace
} // namespace voltcache
