#include "obs/counters.hh"

#include <algorithm>

#include "support/logging.hh"

namespace sched91::obs
{

void
setEnabled(bool on)
{
    detail::g_enabled = on;
}

// --- CounterSet ------------------------------------------------------

std::vector<CounterSet::Item>::iterator
CounterSet::lowerBound(std::string_view name)
{
    return std::lower_bound(items_.begin(), items_.end(), name,
                            [](const Item &item, std::string_view key) {
                                return item.first < key;
                            });
}

std::vector<CounterSet::Item>::const_iterator
CounterSet::lowerBound(std::string_view name) const
{
    return std::lower_bound(items_.begin(), items_.end(), name,
                            [](const Item &item, std::string_view key) {
                                return item.first < key;
                            });
}

void
CounterSet::set(std::string name, std::uint64_t value)
{
    auto it = lowerBound(name);
    if (it != items_.end() && it->first == name)
        it->second = value;
    else
        items_.insert(it, Item{std::move(name), value});
}

std::uint64_t
CounterSet::value(std::string_view name) const
{
    auto it = lowerBound(name);
    return it != items_.end() && it->first == name ? it->second : 0;
}

bool
CounterSet::contains(std::string_view name) const
{
    auto it = lowerBound(name);
    return it != items_.end() && it->first == name;
}

void
CounterSet::merge(const CounterSet &other)
{
    for (const Item &item : other.items_) {
        auto it = lowerBound(item.first);
        if (it != items_.end() && it->first == item.first)
            it->second += item.second;
        else
            items_.insert(it, item);
    }
}

CounterSet
CounterSet::nonzero() const
{
    CounterSet out;
    for (const Item &item : items_)
        if (item.second != 0)
            out.items_.push_back(item);
    return out;
}

// --- CounterRegistry -------------------------------------------------

CounterRegistry &
CounterRegistry::global()
{
    static CounterRegistry instance;
    return instance;
}

std::size_t
CounterRegistry::addLocked(std::string_view name, CounterKind kind)
{
    const std::size_t id = names_.size();
    if (id == kCapacity)
        panic("counter registry full (", kCapacity, ") adding '",
              std::string(name), "'");
    names_.emplace_back(name);
    kinds_[id] = kind;
    index_.emplace(names_.back(), id);
    size_.store(id + 1, std::memory_order_release);
    return id;
}

std::size_t
CounterRegistry::findLocked(std::string_view name) const
{
    auto it = index_.find(name);
    return it != index_.end() ? it->second : npos;
}

std::size_t
CounterRegistry::add(std::string_view name, CounterKind kind)
{
    std::lock_guard<std::mutex> lock(regMu_);
    if (index_.find(name) != index_.end())
        panic("duplicate counter '", std::string(name), "'");
    return addLocked(name, kind);
}

std::size_t
CounterRegistry::getOrAdd(std::string_view name, CounterKind kind)
{
    std::lock_guard<std::mutex> lock(regMu_);
    std::size_t id = findLocked(name);
    return id != npos ? id : addLocked(name, kind);
}

std::size_t
CounterRegistry::find(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(regMu_);
    return findLocked(name);
}

CounterKind
CounterRegistry::kindByName(std::string_view name) const
{
    std::size_t id = find(name);
    return id == npos ? CounterKind::Sum : kinds_[id];
}

std::uint64_t
CounterRegistry::valueByName(std::string_view name) const
{
    std::size_t id = find(name);
    return id == npos ? 0 : slots_[id];
}

void
CounterRegistry::resetAll()
{
    std::lock_guard<std::mutex> lock(regMu_);
    std::fill_n(slots_.begin(), names_.size(), 0);
}

CounterSet
CounterRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(regMu_);
    CounterSet out;
    for (std::size_t id = 0; id < names_.size(); ++id)
        out.set(names_[id], slots_[id]);
    return out;
}

void
CounterRegistry::snapshotInto(CounterValues &out) const
{
    out.slots_.assign(slots_.begin(), slots_.begin() + size());
}

CounterSet
CounterRegistry::deltaSince(const CounterSet &before) const
{
    std::lock_guard<std::mutex> lock(regMu_);
    CounterSet out;
    for (std::size_t id = 0; id < names_.size(); ++id)
        out.set(names_[id], slots_[id] - before.value(names_[id]));
    return out;
}

// --- CounterValues ---------------------------------------------------

std::uint64_t
CounterValues::value(std::string_view name) const
{
    const std::size_t id = registry_->find(name);
    return id == CounterRegistry::npos ? 0 : value(id);
}

void
CounterValues::addDelta(const CounterValues &now,
                        const CounterValues &before)
{
    const std::size_t n = now.slots_.size();
    if (slots_.size() < n)
        slots_.resize(n, 0);
    std::uint64_t *held = slots_.data();
    const std::uint64_t *cur = now.slots_.data();
    const std::uint64_t *prev = before.slots_.data();
    const CounterKind *kinds = registry_->kinds();
    const auto step = [&](std::size_t id, std::uint64_t p) {
        const std::uint64_t v = cur[id];
        const std::uint64_t sum = held[id] + (v > p ? v - p : 0);
        const std::uint64_t peak = std::max(held[id], v);
        held[id] = kinds[id] == CounterKind::Max ? peak : sum;
    };
    const std::size_t common = std::min(n, before.slots_.size());
    std::size_t id = 0;
    for (; id < common; ++id)
        step(id, prev[id]);
    for (; id < n; ++id)
        step(id, 0);
}

void
CounterValues::subtract(const CounterValues &before)
{
    for (std::size_t id = 0; id < slots_.size(); ++id)
        slots_[id] -= std::min(slots_[id], before.value(id));
}

CounterSet
CounterValues::named() const
{
    std::vector<CounterSet::Item> items;
    items.reserve(slots_.size());
    for (std::size_t id = 0; id < slots_.size(); ++id)
        items.emplace_back(registry_->name(id), slots_[id]);
    std::sort(items.begin(), items.end());
    return CounterSet(std::move(items));
}

// --- CounterShard ----------------------------------------------------

void
CounterShard::flushInto(CounterShard &into) const
{
    into.slots_.merge(slots_);
}

void
CounterShard::flushInto(CounterRegistry &into) const
{
    for (std::size_t id = 0; id < slots_.size(); ++id) {
        const std::uint64_t v = slots_.value(id);
        if (v == 0)
            continue;
        if (registry_->kind(id) == CounterKind::Max)
            into.recordMax(id, v);
        else
            into.increment(id, v);
    }
}

CounterValues
SnapshotDeltaTracker::advance(const CounterValues &now)
{
    CounterValues delta(last_.registry());
    delta.addDelta(now, last_);
    last_ = now;
    return delta;
}

} // namespace sched91::obs
