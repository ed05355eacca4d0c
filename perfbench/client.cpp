// perfbench_client — runs one benchmark workload and writes what it
// measured (raw samples, counters, spans, checks, host metadata) as one
// JSON document. perfbench/run.py builds and drives it.
//
//   perfbench_client --workload compile-apps|drift-reconfig|fleet-serve
//                    --seed N --seconds S --trace 0|1 --work-dir DIR
//                    --out FILE [--tiny]
#include <sys/resource.h>
#include <sys/statfs.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "sim/pipeline.hpp"
#include "support/rng.hpp"

namespace perfbench {

double cpu_seconds() {
    struct rusage ru {};
    ::getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void probe_sim(const p4all::compiler::CompileResult& compiled, std::size_t packets,
               std::uint64_t seed, Tracer& tracer, Result& out) {
    const auto t0 = Clock::now();
    p4all::sim::Pipeline pipe(
        compiled.program, compiled.layout,
        compiled.artifacts ? std::span<const p4all::verify::ProofFact>(compiled.artifacts->proofs)
                           : std::span<const p4all::verify::ProofFact>{});
    const auto t1 = Clock::now();
    tracer.record("sim.build", t0, t1, 0);
    // Random packets, generated before timing starts.
    p4all::support::Xoshiro256 rng(seed);
    const std::size_t fields = compiled.program.packet_fields.size();
    std::vector<p4all::sim::Packet> pkts(std::min<std::size_t>(packets, 4096),
                                         p4all::sim::Packet(fields, 0));
    for (auto& p : pkts) {
        for (std::size_t f = 0; f < fields; ++f) {
            const int w = compiled.program.packet_fields[f].width;
            p[f] = w >= 64 ? rng() : rng() & ((1ULL << w) - 1);
        }
    }
    const auto p0 = Clock::now();
    for (std::size_t i = 0; i < packets; ++i) pipe.process(pkts[i % pkts.size()]);
    const auto p1 = Clock::now();
    tracer.record("sim.process", p0, p1, 0, packets);
    out.samples["sim.build_ms"].push_back(ms_between(t0, t1));
    out.samples["sim.process_ns"].push_back(ms_between(p0, p1) * 1e6 /
                                            static_cast<double>(packets));
    out.samples["sim.ops"].push_back(static_cast<double>(pipe.compiled_op_count()));
    out.samples["sim.checks_elided"].push_back(static_cast<double>(pipe.bounds_checks_elided()));
}

namespace {

std::string json_str(const std::string& s) {
    std::string o = "\"";
    for (const char c : s) {
        switch (c) {
            case '"': o += "\\\""; break;
            case '\\': o += "\\\\"; break;
            case '\n': o += "\\n"; break;
            case '\t': o += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    o += buf;
                } else {
                    o += c;
                }
        }
    }
    return o + "\"";
}

std::string json_num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string fs_type(const std::string& path) {
    struct statfs st {};
    if (::statfs(path.c_str(), &st) != 0) return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
        case 0xEF53UL: return "ext4";
        case 0x01021994UL: return "tmpfs";
        case 0x794C7630UL: return "overlayfs";
        case 0x58465342UL: return "xfs";
        case 0x9123683EUL: return "btrfs";
        default: {
            char buf[32];
            std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(st.f_type));
            return buf;
        }
    }
}

double peak_rss_mb() {
    struct rusage ru {};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void write_json(std::ostream& os, const Options& opt, const Result& r, const Tracer& t) {
    os << "{\"workload\":" << json_str(opt.workload) << ",\"seed\":" << opt.seed
       << ",\"seconds\":" << json_num(opt.seconds) << ",\"trace\":" << (opt.trace ? 1 : 0)
       << ",\"tiny\":" << (opt.tiny ? 1 : 0);
    os << ",\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"compiler\":" << json_str(std::string("g++ ") + __VERSION__)
       << ",\"build_type\":" << json_str(P4ALL_PERFBENCH_BUILD_TYPE)
       << ",\"journal_fs\":" << json_str(fs_type(opt.work_dir) + ", fsync no-op") << "}";
    os << ",\"setup_s\":[";
    for (std::size_t i = 0; i < r.setup_s.size(); ++i) os << (i ? "," : "") << json_num(r.setup_s[i]);
    os << "],\"phase_s\":" << json_num(r.phase_s)
       << ",\"phase_cpu_s\":" << json_num(r.phase_cpu_s) << ",\"attempted\":" << r.attempted
       << ",\"failed\":" << r.failed << ",\"utility\":" << json_num(r.utility)
       << ",\"peak_rss_mb\":" << json_num(peak_rss_mb());
    os << ",\"failures\":[";
    for (std::size_t i = 0; i < r.failures.size(); ++i) os << (i ? "," : "") << json_str(r.failures[i]);
    os << "],\"checks\":{";
    bool first = true;
    for (const auto& [k, v] : r.checks) {
        os << (first ? "" : ",") << json_str(k) << ":" << v;
        first = false;
    }
    os << "},\"samples\":{";
    first = true;
    for (const auto& [k, v] : r.samples) {
        os << (first ? "" : ",") << json_str(k) << ":[";
        for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << json_num(v[i]);
        os << "]";
        first = false;
    }
    os << "},\"counters\":{";
    first = true;
    for (const auto& [k, v] : r.counters) {
        os << (first ? "" : ",") << json_str(k) << ":" << json_num(v);
        first = false;
    }
    // Spans as rows: [name, start_ns, end_ns, parent, op, n].
    os << "},\"spans\":[";
    first = true;
    for (const auto& s : t.spans()) {
        os << (first ? "" : ",") << "[" << json_str(s.name) << "," << s.start_ns << ","
           << s.end_ns << "," << s.parent << "," << s.op << "," << s.n << "]";
        first = false;
    }
    os << "]}\n";
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench_client: %s\n"
                 "usage: perfbench_client --workload compile-apps|drift-reconfig|fleet-serve\n"
                 "       --seed N --seconds S --trace 0|1 --work-dir DIR --out FILE\n"
                 "       [--tiny]\n",
                 why);
    return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Options opt;
    std::string out_path;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload") opt.workload = value();
            else if (a == "--seed") opt.seed = std::stoull(value());
            else if (a == "--seconds") opt.seconds = std::stod(value());
            else if (a == "--trace") opt.trace = value() == "1";
            else if (a == "--work-dir") opt.work_dir = value();
            else if (a == "--out") out_path = value();
            else if (a == "--tiny") opt.tiny = true;
            else return usage(("unknown argument " + a).c_str());
        } catch (const std::exception& e) {
            return usage(e.what());
        }
    }
    if (opt.workload.empty() || out_path.empty() || opt.work_dir.empty()) {
        return usage("--workload, --work-dir and --out are required");
    }
    std::filesystem::create_directories(opt.work_dir);

    Tracer tracer(opt.trace);
    Result result;
    try {
        if (opt.workload == "compile-apps") run_compile_apps(opt, tracer, result);
        else if (opt.workload == "drift-reconfig") run_drift_reconfig(opt, tracer, result);
        else if (opt.workload == "fleet-serve") run_fleet_serve(opt, tracer, result);
        else return usage(("unknown workload " + opt.workload).c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_client: %s: %s\n", opt.workload.c_str(), e.what());
        return 1;
    }
    std::ofstream os(out_path);
    write_json(os, opt, result, tracer);
    return os.good() ? 0 : 1;
}
