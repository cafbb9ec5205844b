// SHA-256 — the content-address function of the serve-layer result store.
//
// Own implementation (FIPS 180-4), dependency-free like the rest of
// `common/`: the digest keys leg results across processes and machines, so
// it must be stable forever and cannot hide behind a platform library. The
// streaming class hashes incrementally; HashWriter adds the field-tagged
// framing the leg keys are built from (every field is hashed explicitly —
// never raw struct bytes, which would bake padding and ABI into the key).
//
// Block compression is chosen once per process from CPUID: the x86-64 SHA
// extensions (SHA-NI) where the CPU has them, otherwise the portable FIPS
// 180-4 rounds, which are the reference and the only path on every other
// CPU (common/sha256_compress.h; a differential test holds the two equal).
// Either way the digests are bit-identical, so stored leg keys stay valid
// across hosts.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace voltcache {

using Digest256 = std::array<std::uint8_t, 32>;

class Sha256 {
public:
    Sha256() noexcept { reset(); }

    void reset() noexcept;
    void update(const void* data, std::size_t size) noexcept;
    void update(std::string_view text) noexcept { update(text.data(), text.size()); }

    /// Finalize and return the digest. The stream is consumed; call reset()
    /// to reuse the object.
    [[nodiscard]] Digest256 finish() noexcept;

    /// One-shot convenience.
    [[nodiscard]] static Digest256 digest(std::string_view data) noexcept {
        Sha256 h;
        h.update(data);
        return h.finish();
    }

private:
    std::array<std::uint32_t, 8> state_{};
    std::array<std::uint8_t, 64> buffer_{};
    std::size_t bufferedBytes_ = 0;
    std::uint64_t totalBytes_ = 0;
};

/// Lowercase hex rendering (64 characters).
[[nodiscard]] std::string digestToHex(const Digest256& digest);

/// Field-tagged streaming front end for building content keys: scalars are
/// hashed in a fixed-width little-endian encoding, strings length-prefixed,
/// so two different field sequences can never collide by concatenation.
/// Fields are encoded into a fixed buffer on the writer (on the stack, where
/// the writer lives) that feeds SHA-256 only when full and at finish(): a
/// key of up to kStagedBytes — a leg key is 266 bytes — is hashed in one
/// update call instead of one per field, with the same bytes.
class HashWriter {
public:
    static constexpr std::size_t kStagedBytes = 512;

    void u8(std::uint8_t value) noexcept { put(&value, 1); }
    void u32(std::uint32_t value) noexcept { littleEndian(value); }
    void u64(std::uint64_t value) noexcept { littleEndian(value); }
    void i32(std::int32_t value) noexcept { u32(static_cast<std::uint32_t>(value)); }
    /// Doubles hash by IEEE-754 bit pattern: the key must distinguish every
    /// representable parameter value, not an approximation of it.
    void f64(double value) noexcept;
    void boolean(bool value) noexcept { u8(value ? 1 : 0); }
    void str(std::string_view text) noexcept {
        u64(text.size());
        put(text.data(), text.size());
    }
    void bytes(const void* data, std::size_t size) noexcept {
        u64(size);
        put(data, size);
    }
    void digest(const Digest256& d) noexcept { put(d.data(), d.size()); }

    [[nodiscard]] Digest256 finish() noexcept {
        hash_.update(staged_.data(), used_);
        return hash_.finish();
    }

private:
    /// One store on little-endian hosts: bytes written one at a time and
    /// then copied as a word stall store forwarding, field after field.
    template <typename T>
    void littleEndian(T value) noexcept {
        std::uint8_t bytes[sizeof(T)];
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(bytes, &value, sizeof(T));
        } else {
            for (std::size_t i = 0; i < sizeof(T); ++i) {
                bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
            }
        }
        put(bytes, sizeof(T));
    }

    void put(const void* data, std::size_t size) noexcept {
        if (size > staged_.size() - used_) {
            hash_.update(staged_.data(), used_);
            used_ = 0;
            if (size > staged_.size()) {
                hash_.update(data, size);
                return;
            }
        }
        std::memcpy(staged_.data() + used_, data, size);
        used_ += size;
    }

    Sha256 hash_;
    std::array<std::uint8_t, kStagedBytes> staged_{}; ///< [0, used_) not yet hashed
    std::size_t used_ = 0;
};

} // namespace voltcache
