#include "common/hash.h"

#include <bit>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "common/sha256_compress.h"

namespace voltcache {

namespace detail {
namespace {

// FIPS 180-4 section 4.2.2: first 32 bits of the fractional parts of the
// cube roots of the first 64 primes.
constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t loadBigEndian32(const std::uint8_t* bytes) noexcept {
    return (static_cast<std::uint32_t>(bytes[0]) << 24) |
           (static_cast<std::uint32_t>(bytes[1]) << 16) |
           (static_cast<std::uint32_t>(bytes[2]) << 8) |
           static_cast<std::uint32_t>(bytes[3]);
}

} // namespace

void sha256CompressPortable(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t blockCount) noexcept {
    for (; blockCount > 0; --blockCount, blocks += 64) {
        std::uint32_t w[64];
        for (int t = 0; t < 16; ++t) w[t] = loadBigEndian32(blocks + 4 * t);
        for (int t = 16; t < 64; ++t) {
            const std::uint32_t s0 = std::rotr(w[t - 15], 7) ^ std::rotr(w[t - 15], 18) ^
                                     (w[t - 15] >> 3);
            const std::uint32_t s1 = std::rotr(w[t - 2], 17) ^ std::rotr(w[t - 2], 19) ^
                                     (w[t - 2] >> 10);
            w[t] = w[t - 16] + s0 + w[t - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
        for (int t = 0; t < 64; ++t) {
            const std::uint32_t bigSigma1 =
                std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
            const std::uint32_t choose = (e & f) ^ (~e & g);
            const std::uint32_t temp1 = h + bigSigma1 + choose + kRoundConstants[t] + w[t];
            const std::uint32_t bigSigma0 =
                std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
            const std::uint32_t majority = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t temp2 = bigSigma0 + majority;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }
        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

#if defined(__x86_64__) && defined(__GNUC__)

namespace {

// The same rounds on the SHA extensions: sha256rnds2 performs two rounds on
// a state split into {A,B,E,F} / {C,D,G,H} halves; sha256msg1/msg2 extend
// the message schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void compressShaNi(std::uint32_t* state,
                                                          const std::uint8_t* blocks,
                                                          std::size_t blockCount) noexcept {
    const __m128i byteSwap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
    // {A,B,C,D} / {E,F,G,H} in memory order → the {A,B,E,F} / {C,D,G,H}
    // register layout sha256rnds2 expects (word order high to low).
    __m128i cdab = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
    __m128i efgh = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for (; blockCount > 0; --blockCount, blocks += 64) {
        const __m128i abefSaved = abef;
        const __m128i cdghSaved = cdgh;
        __m128i w[4]; // w[g % 4] holds schedule words 4g..4g+3
#pragma GCC unroll 16
        for (int g = 0; g < 16; ++g) {
            __m128i& words = w[g & 3];
            if (g < 4) {
                words = _mm_shuffle_epi8(
                    _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)),
                    byteSwap);
            } else {
                const __m128i& prev = w[(g + 3) & 3];
                words = _mm_sha256msg2_epu32(
                    _mm_add_epi32(_mm_sha256msg1_epu32(words, w[(g + 1) & 3]),
                                  _mm_alignr_epi8(prev, w[(g + 2) & 3], 4)),
                    prev);
            }
            __m128i msg = _mm_add_epi32(
                words,
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRoundConstants[4 * g])));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
            msg = _mm_shuffle_epi32(msg, 0x0E);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
        }
        abef = _mm_add_epi32(abef, abefSaved);
        cdgh = _mm_add_epi32(cdgh, cdghSaved);
    }

    const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

} // namespace

Sha256CompressFn sha256CompressShaNi() noexcept {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") ? &compressShaNi
                                                                              : nullptr;
}

#else

Sha256CompressFn sha256CompressShaNi() noexcept { return nullptr; }

#endif

} // namespace detail

namespace {

/// The compression function every Sha256 uses, chosen on first use.
void compress(std::uint32_t* state, const std::uint8_t* blocks,
              std::size_t blockCount) noexcept {
    static const detail::Sha256CompressFn selected = [] {
        const detail::Sha256CompressFn shaNi = detail::sha256CompressShaNi();
        return shaNi != nullptr ? shaNi : &detail::sha256CompressPortable;
    }();
    selected(state, blocks, blockCount);
}

} // namespace

void Sha256::reset() noexcept {
    // Section 5.3.3: fractional parts of the square roots of the first 8 primes.
    state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    bufferedBytes_ = 0;
    totalBytes_ = 0;
}

void Sha256::update(const void* data, std::size_t size) noexcept {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    totalBytes_ += size;
    if (bufferedBytes_ > 0) {
        const std::size_t take = std::min(size, buffer_.size() - bufferedBytes_);
        std::memcpy(buffer_.data() + bufferedBytes_, bytes, take);
        bufferedBytes_ += take;
        bytes += take;
        size -= take;
        if (bufferedBytes_ < buffer_.size()) return;
        compress(state_.data(), buffer_.data(), 1);
        bufferedBytes_ = 0;
    }
    const std::size_t blockCount = size / buffer_.size();
    if (blockCount > 0) {
        compress(state_.data(), bytes, blockCount);
        bytes += blockCount * buffer_.size();
        size -= blockCount * buffer_.size();
    }
    if (size > 0) {
        std::memcpy(buffer_.data(), bytes, size);
        bufferedBytes_ = size;
    }
}

Digest256 Sha256::finish() noexcept {
    // Section 5.1.1: a 0x80 byte, zeros up to 56 mod 64, then the message
    // length in bits as a big-endian 64-bit integer.
    const std::uint64_t messageBits = totalBytes_ * 8;
    std::size_t used = bufferedBytes_;
    buffer_[used++] = 0x80;
    if (used > 56) {
        std::memset(buffer_.data() + used, 0, buffer_.size() - used);
        compress(state_.data(), buffer_.data(), 1);
        used = 0;
    }
    std::memset(buffer_.data() + used, 0, 56 - used);
    for (int i = 0; i < 8; ++i) {
        buffer_[56 + i] = static_cast<std::uint8_t>(messageBits >> (8 * (7 - i)));
    }
    compress(state_.data(), buffer_.data(), 1);
    bufferedBytes_ = 0;

    Digest256 digest;
    for (int i = 0; i < 8; ++i) {
        digest[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
        digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
        digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
        digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    return digest;
}

std::string digestToHex(const Digest256& digest) {
    static constexpr char kHex[] = "0123456789abcdef";
    std::string hex;
    hex.reserve(digest.size() * 2);
    for (const std::uint8_t byte : digest) {
        hex.push_back(kHex[byte >> 4]);
        hex.push_back(kHex[byte & 0xF]);
    }
    return hex;
}

void HashWriter::f64(double value) noexcept { u64(std::bit_cast<std::uint64_t>(value)); }

} // namespace voltcache
