#include "runtime/snapshot.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/durable.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"

namespace p4all::runtime {

using support::Errc;
using support::Error;

namespace {

constexpr const char* kFormat = "p4all-snapshot-v1";

// Hard caps on untrusted input: a snapshot claiming more than any real
// pipeline could hold is corruption (or an attack), and must be rejected
// before memory is committed to it.
constexpr std::int64_t kMaxRows = std::int64_t{1} << 20;
constexpr std::int64_t kMaxElems = std::int64_t{1} << 26;
constexpr std::uintmax_t kMaxFileBytes = std::uintmax_t{1} << 28;

std::string hex_encode(const std::vector<std::uint64_t>& data) {
    static const char* digits = "0123456789abcdef";
    std::string out;
    out.reserve(data.size() * 16);
    for (const std::uint64_t v : data) {
        for (int shift = 60; shift >= 0; shift -= 4) out += digits[(v >> shift) & 0xF];
    }
    return out;
}

std::vector<std::uint64_t> hex_decode(const std::string& text) {
    if (text.size() % 16 != 0) {
        throw Error(Errc::SnapshotError, "snapshot: row data length not a multiple of 16");
    }
    std::vector<std::uint64_t> out;
    out.reserve(text.size() / 16);
    for (std::size_t i = 0; i < text.size(); i += 16) {
        std::uint64_t v = 0;
        for (std::size_t j = 0; j < 16; ++j) {
            const char c = text[i + j];
            std::uint64_t nibble = 0;
            if (c >= '0' && c <= '9') nibble = static_cast<std::uint64_t>(c - '0');
            else if (c >= 'a' && c <= 'f') nibble = static_cast<std::uint64_t>(c - 'a' + 10);
            else throw Error(Errc::SnapshotError, "snapshot: non-hex character in row data");
            v = (v << 4) | nibble;
        }
        out.push_back(v);
    }
    return out;
}

std::string hex16(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

}  // namespace

std::uint64_t Snapshot::checksum() const {
    std::uint64_t h = support::hash_word(rows.size(), 0xC0FFEEULL);
    for (const SnapshotRow& row : rows) {
        std::uint64_t name_h = 0;
        for (const char c : row.reg) {
            name_h = support::hash_word(static_cast<unsigned char>(c), name_h);
        }
        h = support::hash_word(name_h, h);
        h = support::hash_word(static_cast<std::uint64_t>(row.instance), h);
        h = support::hash_word(static_cast<std::uint64_t>(row.width), h);
        h = support::hash_word(support::hash_words(row.data, h), h);
    }
    return h;
}

bool Snapshot::state_identical(const Snapshot& other) const {
    if (rows.size() != other.rows.size()) return false;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SnapshotRow& a = rows[i];
        const SnapshotRow& b = other.rows[i];
        if (a.reg != b.reg || a.instance != b.instance || a.width != b.width ||
            a.data != b.data) {
            return false;
        }
    }
    return true;
}

Snapshot take_snapshot(const sim::Pipeline& pipe, std::uint64_t epoch) {
    Snapshot snap;
    snap.program = pipe.program().name;
    snap.epoch = epoch;
    snap.packets = pipe.packets_processed();
    for (const sim::RegRowInfo& info : pipe.reg_rows()) {
        SnapshotRow row;
        row.reg = pipe.program().reg(info.reg).name;
        row.instance = info.instance;
        row.width = info.width;
        const auto data = pipe.reg_row_data(info.reg, info.instance);
        row.data.assign(data.begin(), data.end());
        snap.rows.push_back(std::move(row));
    }
    return snap;
}

void apply_snapshot(const Snapshot& snap, sim::Pipeline& pipe) {
    const ir::Program& prog = pipe.program();
    if (snap.program != prog.name) {
        throw Error(Errc::SnapshotError, "snapshot: program '" + snap.program +
                                             "' does not match pipeline program '" + prog.name +
                                             "'");
    }
    // Validate everything before touching any state: apply is all-or-nothing.
    const std::vector<sim::RegRowInfo> placed = pipe.reg_rows();
    if (snap.rows.size() != placed.size()) {
        throw Error(Errc::SnapshotError,
                    "snapshot: " + std::to_string(snap.rows.size()) + " rows vs " +
                        std::to_string(placed.size()) + " placed rows — layouts differ; use "
                        "the state migrator for cross-layout transfer");
    }
    for (const SnapshotRow& row : snap.rows) {
        const ir::RegisterId reg = prog.find_register(row.reg);
        if (reg == ir::kNoId) {
            throw Error(Errc::SnapshotError,
                        "snapshot: register '" + row.reg + "' not in program");
        }
        if (pipe.reg_size(row.reg, row.instance) != static_cast<std::int64_t>(row.data.size())) {
            throw Error(Errc::SnapshotError,
                        "snapshot: row " + row.reg + "_" + std::to_string(row.instance) +
                            " size mismatch — layouts differ; use the state migrator");
        }
        if (prog.reg(reg).width != row.width) {
            throw Error(Errc::SnapshotError, "snapshot: row " + row.reg + " width mismatch");
        }
    }
    for (const SnapshotRow& row : snap.rows) {
        pipe.reg_row_assign(prog.find_register(row.reg), row.instance, row.data);
    }
}

std::string serialize_snapshot(const Snapshot& snap) {
    support::Json doc = support::Json::object();
    doc.set("format", kFormat);
    doc.set("program", snap.program);
    doc.set("epoch", static_cast<std::int64_t>(snap.epoch));
    doc.set("packets", static_cast<std::int64_t>(snap.packets));
    support::Json rows = support::Json::array();
    for (const SnapshotRow& row : snap.rows) {
        support::Json r = support::Json::object();
        r.set("reg", row.reg);
        r.set("instance", row.instance);
        r.set("width", row.width);
        r.set("elems", static_cast<std::int64_t>(row.data.size()));
        r.set("data", hex_encode(row.data));
        rows.push_back(std::move(r));
    }
    doc.set("rows", std::move(rows));
    doc.set("checksum", hex16(snap.checksum()));
    return doc.dump(2);
}

Snapshot parse_snapshot(const std::string& text) {
    support::Json doc;
    try {
        doc = support::Json::parse(text);
    } catch (const std::exception& e) {
        throw Error(Errc::SnapshotError, std::string("snapshot: malformed JSON: ") + e.what());
    }
    try {
        if (doc.get_string("format", "") != kFormat) {
            throw Error(Errc::SnapshotError, "snapshot: unknown format '" +
                                                 doc.get_string("format", "<missing>") + "'");
        }
        Snapshot snap;
        snap.program = doc.get_string("program", "");
        snap.epoch = static_cast<std::uint64_t>(doc.get_int("epoch", 0));
        snap.packets = static_cast<std::uint64_t>(doc.get_int("packets", 0));
        const auto& rows = doc.at("rows").as_array();
        if (static_cast<std::int64_t>(rows.size()) > kMaxRows) {
            throw Error(Errc::SnapshotError, "snapshot: row count exceeds the sanity cap");
        }
        for (const support::Json& r : rows) {
            SnapshotRow row;
            row.reg = r.at("reg").as_string();
            row.instance = r.at("instance").as_int();
            row.width = static_cast<int>(r.at("width").as_int());
            if (row.width < 1 || row.width > 64) {
                throw Error(Errc::SnapshotError,
                            "snapshot: row " + row.reg + " has impossible width " +
                                std::to_string(row.width));
            }
            // Validate the claimed element count BEFORE decoding: corrupt
            // metadata must not drive the decoder's allocation.
            const std::int64_t elems = r.at("elems").as_int();
            const std::string& data = r.at("data").as_string();
            if (elems < 0 || elems > kMaxElems) {
                throw Error(Errc::SnapshotError,
                            "snapshot: row " + row.reg + " element count out of range");
            }
            if (data.size() != static_cast<std::size_t>(elems) * 16) {
                throw Error(Errc::SnapshotError,
                            "snapshot: row " + row.reg + " element count disagrees with data");
            }
            row.data = hex_decode(data);
            snap.rows.push_back(std::move(row));
        }
        const std::string claimed = doc.get_string("checksum", "");
        if (claimed != hex16(snap.checksum())) {
            throw Error(Errc::SnapshotError, "snapshot: checksum mismatch (corrupt file)");
        }
        return snap;
    } catch (const Error&) {
        throw;
    } catch (const std::exception& e) {
        throw Error(Errc::SnapshotError, std::string("snapshot: malformed document: ") + e.what());
    }
}

void save_snapshot(const Snapshot& snap, const std::string& path) {
    if (support::fault_fires("runtime.snapshot")) {
        throw Error(Errc::FaultInjected,
                    "snapshot: injected write failure before committing '" + path + "'");
    }
    support::atomic_replace(path, serialize_snapshot(snap) + "\n", Errc::SnapshotError);
}

Snapshot load_snapshot(const std::string& path) {
    if (support::fault_fires("runtime.restore")) {
        throw Error(Errc::FaultInjected, "snapshot: injected read failure for '" + path + "'");
    }
    std::error_code size_ec;
    const std::uintmax_t bytes = std::filesystem::file_size(path, size_ec);
    if (!size_ec && bytes > kMaxFileBytes) {
        throw Error(Errc::SnapshotError,
                    "snapshot: '" + path + "' exceeds the snapshot size cap");
    }
    std::ifstream in(path);
    if (!in) throw Error(Errc::SnapshotError, "snapshot: cannot open '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse_snapshot(buf.str());
}

}  // namespace p4all::runtime
