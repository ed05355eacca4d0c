// p4allc — the P4All compiler command-line driver (the Figure 8 pipeline).
//
//   p4allc <program.p4all> [options]
//     --target <spec.json>   PISA target specification (default: tofino-like)
//     --backend greedy       heuristic backend instead of the exact ILP
//     --no-windows           disable the stage-window presolve
//     --dump-ilp             print the generated ILP in LP format and exit
//     --verify               run static verification (index bounds, hash
//                            ranges, seed overlap, dead code) and exit
//     --emit-p4 <file>       write the generated concrete P4 to a file
//     --emit-p4-16 <file>    write a v1model P4_16 translation unit
//     --report               print the per-stage resource-occupancy table
//     --audit                independently re-verify the compiled layout and
//                            the ILP certificate (src/audit/); rejection
//                            fails the compilation
//     --resilient            compile through the fallback portfolio (ILP ->
//                            Bland restart -> -O0 -> greedy -> exhaustive,
//                            starting at --backend), each attempt
//                            audit-gated; prints the attempt record
//     --deadline <seconds>   wall-clock budget for the compile (cooperative:
//                            every phase polls it and stops cleanly)
//     --opt-level <0|1>      IR optimizer level (default 1; 0 disables the
//                            certificate-emitting rewrite passes)
//     --faults <spec>        arm deterministic fault injection (see
//                            docs/RESILIENCE.md; same syntax as P4ALL_FAULTS)
//     --quiet                layout summary only
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "audit/audit.hpp"
#include "compiler/compiler.hpp"
#include "compiler/p4_16.hpp"
#include "compiler/report.hpp"
#include "compiler/resilient.hpp"
#include "lang/parser.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "verify/verify.hpp"

namespace {

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw p4all::support::CompileError("cannot open '" + path + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

int usage() {
    std::fprintf(stderr,
                 "usage: p4allc <program.p4all> [--target spec.json] [--backend greedy|ilp]\n"
                 "              [--no-windows] [--dump-ilp] [--verify] [--report] [--audit]\n"
                 "              [--resilient] [--deadline seconds] [--faults spec]\n"
                 "              [--opt-level 0|1]\n"
                 "              [--emit-p4 out.p4] [--emit-p4-16 out.p4] [--quiet]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string input;
    std::string target_path;
    std::string emit_path;
    std::string emit_p4_16_path;
    bool dump_ilp = false;
    bool run_verify = false;
    bool show_report = false;
    bool run_audit = false;
    bool resilient = false;
    bool quiet = false;
    double deadline_seconds = -1.0;
    p4all::compiler::CompileOptions options;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--target" && i + 1 < argc) {
            target_path = argv[++i];
        } else if (arg == "--backend" && i + 1 < argc) {
            const std::string backend = argv[++i];
            if (backend == "greedy") {
                options.backend = p4all::compiler::Backend::Greedy;
            } else if (backend != "ilp") {
                return usage();
            }
        } else if (arg == "--no-windows") {
            options.ilpgen.stage_windows = false;
        } else if (arg == "--dump-ilp") {
            dump_ilp = true;
        } else if (arg == "--verify") {
            run_verify = true;
        } else if (arg == "--emit-p4" && i + 1 < argc) {
            emit_path = argv[++i];
        } else if (arg == "--emit-p4-16" && i + 1 < argc) {
            emit_p4_16_path = argv[++i];
        } else if (arg == "--report") {
            show_report = true;
        } else if (arg == "--audit") {
            run_audit = true;
        } else if (arg == "--resilient") {
            resilient = true;
        } else if (arg == "--opt-level" && i + 1 < argc) {
            const std::string level = argv[++i];
            if (level != "0" && level != "1") return usage();
            options.opt_level = level == "0" ? 0 : 1;
        } else if (arg == "--deadline" && i + 1 < argc) {
            deadline_seconds = std::atof(argv[++i]);
        } else if (arg == "--faults" && i + 1 < argc) {
            try {
                p4all::support::FaultRegistry::instance().configure(argv[++i]);
            } catch (const p4all::support::Error& e) {
                std::fprintf(stderr, "p4allc: %s\n", e.what());
                return 2;
            }
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else if (input.empty()) {
            input = arg;
        } else {
            return usage();
        }
    }
    if (input.empty()) return usage();

    try {
        options.target = target_path.empty()
                             ? p4all::target::tofino_like()
                             : p4all::target::TargetSpec::from_json(
                                   p4all::support::Json::parse(read_file(target_path)));

        const std::string source = read_file(input);
        std::string name = input;
        if (const auto slash = name.find_last_of('/'); slash != std::string::npos) {
            name = name.substr(slash + 1);
        }
        if (const auto dot = name.find_last_of('.'); dot != std::string::npos) {
            name = name.substr(0, dot);
        }

        if (run_verify) {
            const p4all::ir::Program prog =
                p4all::ir::elaborate(p4all::lang::parse(source, input), {.program_name = name});
            const auto issues = p4all::verify::verify_program(prog);
            if (issues.empty()) {
                std::printf("%s: verified clean\n", input.c_str());
                return 0;
            }
            std::fputs(p4all::verify::render(issues).c_str(), stdout);
            return p4all::verify::has_errors(issues) ? 1 : 0;
        }
        if (dump_ilp) {
            const p4all::ir::Program prog =
                p4all::ir::elaborate(p4all::lang::parse(source, input), {.program_name = name});
            const auto bounds = p4all::analysis::unroll_bounds_all(prog, options.target);
            const p4all::compiler::GeneratedIlp gen =
                p4all::compiler::generate_ilp(prog, options.target, bounds, options.ilpgen);
            std::fputs(gen.model.to_lp_format().c_str(), stdout);
            return 0;
        }

        if (deadline_seconds >= 0.0) {
            options.deadline = p4all::support::Deadline::after_seconds(deadline_seconds);
            options.solve.deadline = options.deadline;
        }

        p4all::compiler::CompileResult result;
        if (resilient) {
            p4all::compiler::ResilienceOptions res;
            if (deadline_seconds >= 0.0) res.budget_seconds = deadline_seconds;
            res.external_gate = p4all::audit::make_resilience_gate();
            result = p4all::compiler::compile_resilient_source(source, options, res, name);
            if (!quiet) std::printf("%s\n", result.resilience.to_string().c_str());
        } else {
            result = p4all::compiler::compile_source(source, options, name);
        }

        std::printf("%s: compiled for '%s' in %.3f s (utility %.2f)\n", input.c_str(),
                    options.target.name.c_str(), result.stats.total_seconds, result.utility);
        if (!quiet && result.artifacts->optimized) {
            std::printf("optimizer: %zu rewrite%s applied at -O%d\n",
                        result.artifacts->rewrites.size(),
                        result.artifacts->rewrites.size() == 1 ? "" : "s",
                        result.artifacts->opt_level);
            for (const p4all::opt::RewriteCertificate& c : result.artifacts->rewrites) {
                std::printf("  %-24s %s\n", c.rule.c_str(), c.note.c_str());
            }
        }
        if (run_audit) {
            const p4all::verify::LintResult audit =
                p4all::audit::audit_artifacts(result.program, *result.artifacts);
            std::fputs(audit.render().c_str(), stdout);
            if (audit.has_errors()) {
                std::fprintf(stderr, "p4allc: audit REJECTED the compiled layout\n");
                return 1;
            }
            std::printf("audit: layout and certificate independently verified\n");
        }
        std::printf("%s", result.layout.to_string(result.program).c_str());
        if (!quiet) {
            // A search that stopped early (deadline, node cap, numerical
            // trouble) still ships its incumbent; say that it is unproven.
            std::string proof;
            if (result.artifacts->has_ilp) {
                const p4all::ilp::Solution& sol = result.artifacts->solution;
                proof = sol.optimal() ? ", optimal"
                                      : std::string(", unproven (") +
                                            p4all::support::errc_name(sol.error) + ")";
            }
            std::printf("ILP: %d variables, %d constraints, %lld branch-and-bound nodes%s\n",
                        result.stats.ilp_vars, result.stats.ilp_constraints,
                        static_cast<long long>(result.stats.bb_nodes), proof.c_str());
        }
        if (show_report) {
            const p4all::compiler::UsageReport usage =
                p4all::compiler::compute_usage(result.program, options.target, result.layout);
            std::printf("\n%s",
                        p4all::compiler::render_usage(usage, options.target).c_str());
        }
        if (!emit_p4_16_path.empty()) {
            std::ofstream out(emit_p4_16_path);
            out << p4all::compiler::generate_p4_16(result.program, result.layout);
            std::printf("wrote %s\n", emit_p4_16_path.c_str());
        }
        if (!emit_path.empty()) {
            std::ofstream out(emit_path);
            out << result.p4_source;
            std::printf("wrote %s\n", emit_path.c_str());
        } else if (!quiet && emit_p4_16_path.empty()) {
            std::printf("\n%s", result.p4_source.c_str());
        }
        return 0;
    } catch (const p4all::compiler::ResilientError& e) {
        std::fprintf(stderr, "p4allc: error[%s]: %s\n",
                     p4all::support::errc_code(e.code()), e.what());
        return 1;
    } catch (const p4all::support::Error& e) {
        std::fprintf(stderr, "p4allc: %s\n", e.what());
        return 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "p4allc: %s\n", e.what());
        return 1;
    }
}
