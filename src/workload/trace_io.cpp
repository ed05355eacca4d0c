#include "workload/trace_io.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "support/durable.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

namespace p4all::workload {
namespace {

using support::Errc;
using support::Error;

constexpr char kMagic[8] = {'P', '4', 'A', 'L', 'L', 'T', 'R', 'C'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8;
constexpr std::uint64_t kUnsealed = ~std::uint64_t{0};
constexpr std::uint64_t kChecksumSeed = 0xA5A5'5A5A'C3C3'3C3Cull;

[[noreturn]] void fail(const std::string& path, const std::string& what) {
    throw Error(Errc::TraceError, "binary trace '" + path + "': " + what);
}

std::uint64_t fold(std::uint64_t sum, std::uint64_t key) noexcept {
    return support::hash_word(key, sum);
}

}  // namespace

std::uint64_t trace_checksum(const std::vector<std::uint64_t>& keys) noexcept {
    std::uint64_t sum = kChecksumSeed;
    for (const std::uint64_t key : keys) sum = fold(sum, key);
    return sum;
}

// ---------------------------------------------------------------------------
// TraceWriter

TraceWriter::TraceWriter(const std::string& path) : path_(path), checksum_(kChecksumSeed) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) fail(path_, "cannot create");
    std::string header(kMagic, 8);
    support::put_u32(header, kVersion);
    support::put_u64(header, kUnsealed);  // count: sealed on close()
    support::put_u64(header, 0);          // checksum: sealed on close()
    if (std::fwrite(header.data(), 1, kHeaderBytes, f) != kHeaderBytes || std::fflush(f) != 0) {
        std::fclose(f);
        fail(path_, "header write failed");
    }
    file_ = f;
}

TraceWriter::~TraceWriter() {
    if (file_ == nullptr) return;
    try {
        close();
    } catch (...) {
        // close() has already closed the file; the destructor only swallows.
    }
}

void TraceWriter::append(std::uint64_t key) {
    if (file_ == nullptr) fail(path_, "append after close");
    std::string rec;
    support::put_u64(rec, key);
    if (std::fwrite(rec.data(), 1, 8, static_cast<std::FILE*>(file_)) != 8) {
        fail(path_, "record write failed");
    }
    ++count_;
    checksum_ = fold(checksum_, key);
}

void TraceWriter::close() {
    if (file_ == nullptr) return;
    std::FILE* f = static_cast<std::FILE*>(file_);
    file_ = nullptr;  // the file is closed on every path below
    std::string seal;
    support::put_u64(seal, count_);
    support::put_u64(seal, checksum_);
    // Records become durable before the seal claims they are all there; a
    // crash between the two syncs leaves an unsealed-but-replayable file.
    try {
        support::sync_file(f, path_, Errc::TraceError);
        if (std::fseek(f, 12, SEEK_SET) != 0 || std::fwrite(seal.data(), 1, 16, f) != 16) {
            fail(path_, "seal failed");
        }
        support::sync_file(f, path_, Errc::TraceError);
    } catch (...) {
        std::fclose(f);
        throw;
    }
    if (std::fclose(f) != 0) fail(path_, "seal failed");
    support::sync_dir(std::filesystem::path(path_).parent_path().string(), Errc::TraceError);
}

// ---------------------------------------------------------------------------
// TraceReader

TraceReader::TraceReader(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) fail(path, "cannot open");
    char header[kHeaderBytes];
    if (std::fread(header, 1, kHeaderBytes, f) != kHeaderBytes ||
        std::memcmp(header, kMagic, 8) != 0) {
        std::fclose(f);
        fail(path, "not a P4ALLTRC trace file");
    }
    const std::uint32_t version = support::get_u32(header + 8);
    if (version != kVersion) {
        std::fclose(f);
        fail(path, "unsupported version " + std::to_string(version));
    }
    const std::uint64_t sealed_count = support::get_u64(header + 12);
    const std::uint64_t sealed_sum = support::get_u64(header + 20);

    // Count the complete records actually on disk (a torn trailing partial
    // record — the writer died mid-fwrite — is dropped, not an error).
    // Sized via the filesystem, not ftell: ftell returns long, which
    // overflows on >2 GiB traces under LLP64.
    std::error_code size_ec;
    const std::uintmax_t end = std::filesystem::file_size(path, size_ec);
    if (size_ec) {
        std::fclose(f);
        fail(path, "cannot stat: " + size_ec.message());
    }
    if (end < kHeaderBytes) {
        std::fclose(f);
        fail(path, "truncated header");
    }
    const std::uint64_t on_disk = (static_cast<std::uint64_t>(end) - kHeaderBytes) / 8;

    sealed_ = sealed_count != kUnsealed;
    if (sealed_) {
        if (sealed_count != on_disk) {
            std::fclose(f);
            fail(path, "sealed count " + std::to_string(sealed_count) + " disagrees with " +
                           std::to_string(on_disk) + " records on disk");
        }
        // Verify the sealed checksum over the whole stream up front, so a
        // tampered record is refused before any key is handed out.
        std::fseek(f, kHeaderBytes, SEEK_SET);
        std::uint64_t sum = kChecksumSeed;
        char rec[8];
        for (std::uint64_t i = 0; i < on_disk; ++i) {
            if (std::fread(rec, 1, 8, f) != 8) {
                std::fclose(f);
                fail(path, "short read");
            }
            sum = fold(sum, support::get_u64(rec));
        }
        if (sum != sealed_sum) {
            std::fclose(f);
            fail(path, "checksum mismatch — records were tampered with");
        }
    }
    count_ = on_disk;
    remaining_ = on_disk;
    std::fseek(f, kHeaderBytes, SEEK_SET);
    file_ = f;
}

TraceReader::~TraceReader() {
    if (file_ != nullptr) std::fclose(static_cast<std::FILE*>(file_));
}

bool TraceReader::next(std::uint64_t& key) {
    if (remaining_ == 0) return false;
    char rec[8];
    if (std::fread(rec, 1, 8, static_cast<std::FILE*>(file_)) != 8) {
        remaining_ = 0;
        return false;  // file shrank under us; treat as end of trace
    }
    key = support::get_u64(rec);
    --remaining_;
    return true;
}

// ---------------------------------------------------------------------------
// Whole-trace conveniences

void save_binary_trace(const Trace& trace, const std::string& path) {
    TraceWriter writer(path);
    for (const std::uint64_t key : trace.keys) writer.append(key);
    writer.close();
}

Trace load_binary_trace(const std::string& path) {
    TraceReader reader(path);
    Trace trace;
    trace.keys.reserve(reader.count());
    std::uint64_t key = 0;
    while (reader.next(key)) {
        trace.keys.push_back(key);
        ++trace.counts[key];
    }
    return trace;
}

}  // namespace p4all::workload
