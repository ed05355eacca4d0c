// p4all-audit — standalone translation validation of compiled layouts.
//
// Compiles each input program, then re-derives everything the compiler
// claimed — per-stage resource usage, dependency-respecting stage
// assignment, symbol consistency, and the ILP incumbent + dual certificate
// in exact rational arithmetic — and reports divergences in the same
// Finding/SARIF format as p4all-lint.
//
//   p4all-audit <program.p4all>... [options]
//     --target <spec.json>   PISA target specification (default: tofino-like)
//     --backend greedy|ilp   compilation backend to audit (default: ilp)
//     --checks=a,b,...       run only the named audit passes (default: all 5)
//     --list-checks          print the audit passes and exit
//     --format=text|json     output format (json is SARIF-shaped)
//     --quiet                suppress the per-file acceptance line
//
//   Exit codes: 0 audit accepted every compile, 1 a compile was rejected,
//   2 usage or fatal front-end/compile errors.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "compiler/compiler.hpp"
#include "support/error.hpp"

namespace {

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw p4all::support::CompileError("cannot open '" + path + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::vector<std::string> split_commas(const std::string& list) {
    std::vector<std::string> out;
    std::string item;
    std::istringstream ss(list);
    while (std::getline(ss, item, ',')) {
        if (!item.empty()) out.push_back(item);
    }
    return out;
}

int usage() {
    std::fprintf(stderr,
                 "usage: p4all-audit <program.p4all>... [--target spec.json]\n"
                 "                   [--backend greedy|ilp] [--checks=a,b,...] [--list-checks]\n"
                 "                   [--format=text|json] [--quiet]\n");
    return 2;
}

int list_checks() {
    p4all::audit::register_audit_passes(p4all::verify::PassRegistry::global());
    for (const char* id : p4all::audit::kAuditChecks) {
        const p4all::verify::LintPass* pass = p4all::verify::PassRegistry::global().find(id);
        std::printf("%-28s %s\n", id, std::string(pass->description()).c_str());
    }
    return 0;
}

std::string program_name(const std::string& path) {
    std::string name = path;
    if (const auto slash = name.find_last_of('/'); slash != std::string::npos) {
        name = name.substr(slash + 1);
    }
    if (const auto dot = name.find_last_of('.'); dot != std::string::npos) {
        name = name.substr(0, dot);
    }
    return name;
}

}  // namespace

int main(int argc, char** argv) {
    p4all::audit::register_audit_passes(p4all::verify::PassRegistry::global());

    std::vector<std::string> inputs;
    std::vector<std::string> checks;
    std::string target_path;
    std::string format = "text";
    bool quiet = false;
    p4all::compiler::CompileOptions compile_options;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--target" && i + 1 < argc) {
            target_path = argv[++i];
        } else if (arg == "--backend" && i + 1 < argc) {
            const std::string backend = argv[++i];
            if (backend == "greedy") {
                compile_options.backend = p4all::compiler::Backend::Greedy;
            } else if (backend != "ilp") {
                return usage();
            }
        } else if (arg.rfind("--checks=", 0) == 0) {
            checks = split_commas(arg.substr(9));
        } else if (arg == "--list-checks") {
            return list_checks();
        } else if (arg.rfind("--format=", 0) == 0) {
            format = arg.substr(9);
            if (format != "text" && format != "json") return usage();
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            inputs.push_back(arg);
        }
    }
    if (inputs.empty()) return usage();

    try {
        if (!target_path.empty()) {
            compile_options.target = p4all::target::TargetSpec::from_json(
                p4all::support::Json::parse(read_file(target_path)));
        }

        bool any_rejected = false;
        for (const std::string& input : inputs) {
            const p4all::compiler::CompileResult result = p4all::compiler::compile_source(
                read_file(input), compile_options, program_name(input));

            p4all::audit::ArtifactsPayload payload;
            payload.artifacts = result.artifacts.get();
            p4all::verify::LintOptions lint_options;
            lint_options.checks =
                checks.empty() ? std::vector<std::string>(std::begin(p4all::audit::kAuditChecks),
                                                          std::end(p4all::audit::kAuditChecks))
                               : checks;
            lint_options.target = result.artifacts->target;
            lint_options.payload = &payload;
            const p4all::verify::LintResult audit =
                p4all::verify::run_lint(result.program, lint_options);

            if (format == "json") {
                std::fputs(audit.to_json().dump(2).c_str(), stdout);
                std::fputc('\n', stdout);
            } else {
                std::fputs(audit.render().c_str(), stdout);
            }
            if (audit.has_errors()) {
                any_rejected = true;
                std::fprintf(stderr, "p4all-audit: REJECTED %s\n", input.c_str());
            } else if (!quiet && format == "text") {
                std::printf("p4all-audit: accepted %s (%s)\n", input.c_str(),
                            result.artifacts->summary().c_str());
            }
        }
        return any_rejected ? 1 : 0;
    } catch (const p4all::support::Error& e) {
        // Structured failure: the stable code is already rendered in what(),
        // repeat it bare so scripts can match on it without parsing.
        std::fprintf(stderr, "p4all-audit: %s (code %s)\n", e.what(),
                     p4all::support::errc_code(e.code()));
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "p4all-audit: %s\n", e.what());
        return 2;
    }
}
