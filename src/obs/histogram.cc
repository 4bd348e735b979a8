#include "obs/histogram.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "support/string_util.hh"

namespace sched91::obs
{

std::uint64_t
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0;
    if (p <= 0.0)
        return min();
    if (p >= 100.0)
        return max_;
    // Rank of the percentile among the sorted samples (1-based).
    auto rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count_)));
    if (rank < 1)
        rank = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
        seen += buckets_[i];
        if (seen >= rank)
            return std::min(bucketHi(i), max_);
    }
    return max_;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.count_ == 0)
        return;
    for (std::size_t i = 0; i < kNumBuckets; ++i)
        buckets_[i] += other.buckets_[i];
    if (count_ == 0 || other.min_ < min_)
        min_ = other.min_;
    if (other.max_ > max_)
        max_ = other.max_;
    count_ += other.count_;
    sum_ += other.sum_;
}

Histogram &
HistogramSet::get(std::string_view name)
{
    auto it = std::lower_bound(
        items_.begin(), items_.end(), name,
        [](const Item &item, std::string_view n) {
            return item.first < n;
        });
    if (it != items_.end() && it->first == name)
        return it->second;
    it = items_.insert(it, Item{std::string(name), Histogram{}});
    return it->second;
}

const Histogram *
HistogramSet::find(std::string_view name) const
{
    auto it = std::lower_bound(
        items_.begin(), items_.end(), name,
        [](const Item &item, std::string_view n) {
            return item.first < n;
        });
    if (it != items_.end() && it->first == name)
        return &it->second;
    return nullptr;
}

void
HistogramSet::merge(const HistogramSet &other)
{
    for (const Item &item : other.items_)
        get(item.first).merge(item.second);
}

void
HistogramSet::zeroTimes()
{
    for (Item &item : items_)
        if (isTimeHistogram(item.first))
            item.second.zeroValues();
}

bool
isTimeHistogram(std::string_view name)
{
    return name.size() >= 3 &&
           name.substr(name.size() - 3) == "_ns";
}

std::string
renderHistograms(const HistogramSet &hists)
{
    static constexpr std::size_t kCol = 12;
    std::size_t width = std::string_view("histogram").size();
    for (const auto &[name, h] : hists.items())
        width = std::max(width, name.size());

    std::string out;
    out += padRight("histogram", width + 2);
    for (const char *col : {"count", "p50", "p90", "p99", "max", "mean"})
        out += padLeft(col, kCol);
    out += '\n';
    for (const auto &[name, h] : hists.items()) {
        out += padRight(name, width + 2);
        if (h.count() == 0) {
            // Zero samples: every statistic is 0 by definition.  Print
            // a plain 0 in each column rather than trusting the
            // percentile/mean math with an empty distribution.
            for (int col = 0; col < 6; ++col)
                out += padLeft("0", kCol);
            out += '\n';
            continue;
        }
        out += padLeft(std::to_string(h.count()), kCol);
        out += padLeft(std::to_string(h.percentile(50)), kCol);
        out += padLeft(std::to_string(h.percentile(90)), kCol);
        out += padLeft(std::to_string(h.percentile(99)), kCol);
        out += padLeft(std::to_string(h.max()), kCol);
        char mean[32];
        std::snprintf(mean, sizeof(mean), "%.1f", h.mean());
        out += padLeft(mean, kCol);
        out += '\n';
    }
    return out;
}

} // namespace sched91::obs
