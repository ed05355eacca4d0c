#include "support/durable.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/hash.hpp"

#if defined(_WIN32)
#include <io.h>
#else
#include <fcntl.h>
#include <unistd.h>
#endif

namespace p4all::support {

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kHeaderBytes = 8 + 4;
constexpr std::size_t kFrameBytes = 4 + 8;

/// Order-sensitive checksum over the payload bytes. Seeded so an all-zero
/// payload does not hash to the all-zero disk pattern a sparse file holds.
std::uint64_t record_checksum(std::string_view payload) {
    std::uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (const char c : payload) h = hash_word(static_cast<unsigned char>(c), h);
    return h;
}

}  // namespace

void put_u32(std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

void put_u64(std::string& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

std::uint32_t get_u32(const char* in) noexcept {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(in[i]);
    return v;
}

std::uint64_t get_u64(const char* in) noexcept {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(in[i]);
    return v;
}

void sync_file(std::FILE* f, const std::string& path, Errc code) {
#if defined(_WIN32)
    const bool synced = std::fflush(f) == 0 && ::_commit(::_fileno(f)) == 0;
#else
    const bool synced = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
#endif
    if (!synced) throw Error(code, "cannot sync '" + path + "' to disk");
}

void sync_dir([[maybe_unused]] const std::string& dir, [[maybe_unused]] Errc code) {
    // Windows cannot open directories for _commit; NTFS journals its
    // metadata itself.
#if !defined(_WIN32)
    const std::string name = dir.empty() ? "." : dir;
    const int fd = ::open(name.c_str(), O_RDONLY | O_DIRECTORY);
    const bool synced = fd >= 0 && ::fsync(fd) == 0;
    if (fd >= 0) ::close(fd);
    if (!synced) throw Error(code, "cannot sync directory '" + name + "' to disk");
#endif
}

void atomic_replace(const std::string& path, std::string_view bytes, Errc code) {
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) throw Error(code, "cannot open '" + tmp + "' for writing");
    // Durability order: temp contents, then the rename, then the directory
    // entry — a crash at any point leaves either the old file or the new one.
    try {
        if (std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
            throw Error(code, "write failed for '" + tmp + "'");
        }
        sync_file(f, tmp, code);
        const bool closed = std::fclose(f) == 0;
        f = nullptr;
        std::error_code ec;
        if (closed) fs::rename(tmp, path, ec);
        if (!closed || ec) throw Error(code, "cannot move '" + tmp + "' over '" + path + "'");
    } catch (...) {
        if (f != nullptr) std::fclose(f);
        std::error_code ec;
        fs::remove(tmp, ec);
        throw;
    }
    sync_dir(fs::path(path).parent_path().string(), code);
}

LogScan scan_log(const std::string& path, const LogFormat& format) {
    LogScan out;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        // Only a missing file is an empty log: one that exists but cannot
        // be read must not be mistaken for it and recreated over.
        std::error_code ec;
        if (fs::exists(path, ec) || ec) throw Error(format.code, "cannot read '" + path + "'");
        return out;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();
    if (bytes.size() < kHeaderBytes || std::memcmp(bytes.data(), format.magic, 8) != 0) {
        throw Error(format.code, "'" + path + "' has no " + std::string(format.magic, 8) +
                                     " header");
    }
    const std::uint32_t version = get_u32(bytes.data() + 8);
    if (version != format.version) {
        throw Error(format.code, "'" + path + "' is version " + std::to_string(version) +
                                     ", expected " + std::to_string(format.version));
    }

    std::size_t pos = kHeaderBytes;
    std::string why;
    while (pos < bytes.size()) {
        if (bytes.size() - pos < kFrameBytes) {
            why = "torn frame prefix";
            break;
        }
        const std::uint32_t len = get_u32(bytes.data() + pos);
        const std::size_t have = bytes.size() - pos - kFrameBytes;
        if (len > kMaxRecordBytes) {
            why = "implausible payload length " + std::to_string(len);
        } else if (have < len) {
            why = "torn payload (have " + std::to_string(have) + " of " + std::to_string(len) +
                  " bytes)";
        } else if (record_checksum({bytes.data() + pos + kFrameBytes, len}) !=
                   get_u64(bytes.data() + pos + 4)) {
            why = "checksum mismatch (torn or tampered record)";
        } else if (format.accepts != nullptr &&
                   !format.accepts({bytes.data() + pos + kFrameBytes, len})) {
            why = "record does not decode";
        }
        if (!why.empty()) break;
        out.records.emplace_back(bytes, pos + kFrameBytes, len);
        pos += kFrameBytes + len;
    }
    if (!why.empty()) {
        out.clean = false;
        out.damage = "record " + std::to_string(out.records.size()) + " at byte " +
                     std::to_string(pos) + ": " + why + " — dropped the tail, keeping " +
                     std::to_string(out.records.size()) + " valid record(s)";
    }
    // On damage `pos` sits at the start of the bad frame; on a clean run it
    // equals the file size — either way it ends the valid prefix.
    out.valid_bytes = pos;
    return out;
}

RecordLog::RecordLog(std::string path, const LogFormat& format, LogScan* opened)
    : path_(std::move(path)), code_(format.code) {
    LogScan scan = scan_log(path_, format);
    if (scan.valid_bytes == 0) {
        std::string header(format.magic, 8);
        put_u32(header, format.version);
        atomic_replace(path_, header, code_);
    } else if (!scan.clean) {
        // Appending past torn bytes would strand every later record —
        // synced ones included — behind bytes no reader can parse.
        std::error_code ec;
        fs::resize_file(path_, scan.valid_bytes, ec);
        if (ec) throw Error(code_, "cannot truncate the damaged tail of '" + path_ + "'");
    }
    size_ = scan.valid_bytes == 0 ? kHeaderBytes : scan.valid_bytes;
    file_ = std::fopen(path_.c_str(), "ab");
    if (file_ == nullptr) throw Error(code_, "cannot open '" + path_ + "' for append");
    if (opened != nullptr) *opened = std::move(scan);
}

RecordLog::~RecordLog() {
    if (file_ != nullptr) std::fclose(file_);
}

void RecordLog::append(std::string_view payload) {
    if (payload.size() > kMaxRecordBytes) {
        throw Error(code_, "record for '" + path_ + "' exceeds the size cap");
    }
    if (file_ == nullptr) {
        throw Error(code_,
                    "cannot append to '" + path_ + "': it did not reopen after a failed append");
    }
    std::string frame;
    frame.reserve(kFrameBytes + payload.size());
    put_u32(frame, static_cast<std::uint32_t>(payload.size()));
    put_u64(frame, record_checksum(payload));
    frame += payload;
    try {
        if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
            throw Error(code_, "cannot append to '" + path_ + "'");
        }
        // The record is the durability token — it must survive the very
        // crash the chaos matrices inject one instruction later.
        sync_file(file_, path_, code_);
    } catch (...) {
        // Part of the frame may sit in the file or in the stdio buffer.
        // Closing drops the buffer (its flush may fail again), truncating
        // restores the acknowledged frames, and append mode positions the
        // reopened file at their end.
        std::fclose(file_);
        file_ = nullptr;
        std::error_code ec;
        fs::resize_file(path_, size_, ec);
        if (!ec) file_ = std::fopen(path_.c_str(), "ab");
        throw;
    }
    size_ += frame.size();
}

}  // namespace p4all::support
