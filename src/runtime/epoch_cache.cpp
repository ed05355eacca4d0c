#include "runtime/epoch_cache.hpp"

#include <algorithm>
#include <utility>

namespace p4all::runtime {

EpochCache::EpochCache(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {}

EpochCache::Result EpochCache::find(const std::string& name, const std::string& source) {
    const auto it = std::find_if(lru_.begin(), lru_.end(), [&](const Entry& e) {
        return e.name == name && e.source == source;
    });
    if (it == lru_.end()) {
        ++misses_;
        return nullptr;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it);
    return it->result;
}

void EpochCache::insert(const std::string& name, const std::string& source, Result result) {
    lru_.remove_if([&](const Entry& e) { return e.name == name && e.source == source; });
    lru_.push_front(Entry{name, source, std::move(result)});
    if (lru_.size() > capacity_) lru_.pop_back();
}

}  // namespace p4all::runtime
