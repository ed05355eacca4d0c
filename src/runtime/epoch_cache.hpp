// Content-addressed store of audited compile results, shared by the
// runtimes of one fleet controller.
//
// An elastic program is compiled once per resource budget, and a fleet
// moves each tenant across only a handful of budgets (the pow2 rungs of the
// degradation ladder). The compiled program is a control-plane artifact: a
// switch that dies loses its register state, not the compiler's output. So
// a controller keeps its compiled epochs here, keyed by (program name, full
// source text including the assume profile), and a failover or ladder swap
// that meets a source it already compiled and audited takes the cached
// result instead of recompiling it.
//
// Only results that passed the audit gate are inserted (compile_epoch in
// runtime.cpp); a compile that throws is never cached. Entries are
// immutable and shared: each runtime builds its own sim::Pipeline over the
// result, so data-plane state is never shared. The key carries no compile
// options: one cache serves runtimes that all compile under the same
// RuntimeOptions (FleetController hands its one options_.runtime to every
// tenant). Not thread-safe; one controller drives it from one thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>

#include "compiler/compiler.hpp"

namespace p4all::runtime {

class EpochCache {
public:
    using Result = std::shared_ptr<const compiler::CompileResult>;

    /// Holds at most `capacity` results (at least one).
    explicit EpochCache(std::size_t capacity);

    /// The result cached for (name, source), or null. A hit becomes the
    /// most recently used entry. Every call counts as a hit or a miss.
    [[nodiscard]] Result find(const std::string& name, const std::string& source);

    /// Caches `result` under (name, source) as the most recently used
    /// entry, evicting the least recently used one past capacity.
    void insert(const std::string& name, const std::string& source, Result result);

    [[nodiscard]] std::size_t size() const noexcept { return lru_.size(); }
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
    [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

private:
    struct Entry {
        std::string name;
        std::string source;
        Result result;
    };

    std::size_t capacity_;
    /// Front: most recently used. A fleet holds tens of entries, and a
    /// lookup's name comparison rejects other tenants' entries at once, so
    /// a linear scan beats maintaining an index.
    std::list<Entry> lru_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

}  // namespace p4all::runtime
