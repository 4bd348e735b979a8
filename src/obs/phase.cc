#include "obs/phase.hh"

#include "support/logging.hh"

namespace sched91::obs
{

const PhaseStats *
PhaseStats::child(std::string_view child_name) const
{
    for (const PhaseStats &c : children)
        if (c.name == child_name)
            return &c;
    return nullptr;
}

PhaseProfiler &
PhaseProfiler::global()
{
    static PhaseProfiler instance;
    return instance;
}

PhaseProfiler &
PhaseProfiler::active()
{
    return detail::t_profiler ? *detail::t_profiler : global();
}

void
PhaseProfiler::clear()
{
    SCHED91_ASSERT(depth_ == 0,
                   "cannot clear the phase tree with phases open");
    root_.children.clear();
    root_.counters = CounterValues{};
    root_.entries = 0;
    root_.seconds = 0.0;
}

namespace
{

void
mergeNode(PhaseStats &into, const PhaseStats &from)
{
    into.entries += from.entries;
    into.seconds += from.seconds;
    into.counters.merge(from.counters);
    for (const PhaseStats &fc : from.children) {
        PhaseStats *ic = nullptr;
        for (PhaseStats &c : into.children)
            if (c.name == fc.name) {
                ic = &c;
                break;
            }
        if (!ic) {
            into.children.push_back(PhaseStats{});
            ic = &into.children.back();
            ic->name = fc.name;
        }
        mergeNode(*ic, fc);
    }
}

} // namespace

void
PhaseProfiler::mergeFrom(const PhaseProfiler &other)
{
    SCHED91_ASSERT(depth_ == 0 && other.depth_ == 0,
                   "cannot merge phase trees with phases open");
    mergeNode(root_, other.root_);
}

void
PhaseProfiler::enter(const char *name)
{
    PhaseStats *parent = depth_ == 0 ? &root_ : frames_[depth_ - 1].node;
    PhaseStats *node = nullptr;
    for (PhaseStats &c : parent->children)
        if (c.key == name || c.name == name) {
            node = &c;
            break;
        }
    if (node) {
        node->key = name;
    } else {
        // Only the innermost open phase ever grows children, so this
        // push_back cannot invalidate any pointer still on the stack.
        parent->children.push_back(PhaseStats{});
        node = &parent->children.back();
        node->name = name;
        node->key = name;
    }
    ++node->entries;
    if (depth_ == frames_.size())
        frames_.emplace_back();
    Frame &frame = frames_[depth_++];
    frame.node = node;
    // The values this thread's increments land in: its shard, else
    // the global registry.
    if (const CounterShard *shard = detail::t_shard)
        frame.before = shard->values();
    else
        CounterRegistry::global().snapshotInto(frame.before);
}

void
PhaseProfiler::exit(double seconds)
{
    SCHED91_ASSERT(depth_ != 0, "phase exit without enter");
    Frame &frame = frames_[--depth_];
    frame.node->seconds += seconds;
    if (const CounterShard *shard = detail::t_shard) {
        frame.node->counters.addDelta(shard->values(), frame.before);
        return;
    }
    // A registry's Max slots are run-long peaks, not this phase's:
    // subtract them like Sums.
    CounterRegistry::global().snapshotInto(scratch_);
    scratch_.subtract(frame.before);
    frame.node->counters.merge(scratch_);
}

ScopedPhase::ScopedPhase(const char *name, PhaseProfiler &profiler)
    : profiler_(profiler), start_(Clock::now())
{
    if (enabled()) {
        profiler_.enter(name);
        open_ = true;
    }
}

double
ScopedPhase::seconds() const
{
    if (stopped_)
        return elapsed_;
    return std::chrono::duration<double>(Clock::now() - start_).count();
}

double
ScopedPhase::stop()
{
    if (stopped_)
        return elapsed_;
    elapsed_ = seconds();
    stopped_ = true;
    if (open_) {
        profiler_.exit(elapsed_);
        open_ = false;
    }
    return elapsed_;
}

} // namespace sched91::obs
