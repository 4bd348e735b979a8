/**
 * @file
 * Event-counter registry: the observability layer's answer to the
 * paper's Table 1 cost legend.  Every heuristic is classified by
 * *when* its work happens — 'a' at add-arc time, 'f' in the forward
 * pass, 'b' in the backward pass, 'v' at node visitation — and the
 * counters here count exactly those events (`dag.arcs_added`,
 * `heur.forward_visits`, `sched.node_visits`, ...), turning the
 * classification into measurable quantities per run, per block, and
 * per phase.
 *
 * Design (gem5-style stats registry discipline):
 *
 *  - a process-wide CounterRegistry holds named 64-bit slots with
 *    stable addresses;
 *  - instrumentation sites hold a Counter handle (one pointer);
 *    increments cost a single predictable branch on the global
 *    enable flag — nothing else — so the hot paths of Tables 4/5
 *    are unaffected when observability is off (the default);
 *  - CounterValues snapshots/deltas make counters resettable per
 *    block or per phase without disturbing program-wide totals.  They
 *    are flat arrays indexed by counter id: a snapshot is an array
 *    copy, a delta an element-wise subtraction.  Names are attached
 *    only when output is rendered (CounterValues::named() yields the
 *    name-sorted CounterSet the emitters print).
 *
 * Parallel runs add one more layer: a CounterShard is a flat,
 * thread-private copy of the registry's slots.  The pipeline installs
 * one per worker (ScopedCounterShard), instrumentation sites route
 * into it, and after the parallel region the shards are flushed back
 * into the registry in a fixed order.  Each counter carries a
 * CounterKind so the flush knows how to combine shard values: Sum
 * counters add, Max counters (gauges such as `sched.ready_list_peak`)
 * take the high-water mark.
 */

#ifndef SCHED91_OBS_COUNTERS_HH
#define SCHED91_OBS_COUNTERS_HH

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sched91::obs
{

class CounterShard;
class CounterValues;

/** How concurrent observations of one counter combine. */
enum class CounterKind : std::uint8_t
{
    Sum, ///< monotone event count; shards add
    Max, ///< high-water gauge; shards take the maximum
};

namespace detail
{
/** Global enable flag; read on every increment, written rarely. */
inline bool g_enabled = false;

/** Shard the calling thread routes increments into (none by default). */
inline thread_local CounterShard *t_shard = nullptr;
} // namespace detail

/** Whether event counting and phase-tree profiling are active. */
inline bool enabled() { return detail::g_enabled; }

/** Turn the observability layer on or off (off by default). */
void setEnabled(bool on);

/**
 * An ordered name -> value mapping: the rendered form of counter
 * values, and the name-keyed snapshot/delta of a registry for one-off
 * brackets.  Plain data, mergeable.
 */
class CounterSet
{
  public:
    using Item = std::pair<std::string, std::uint64_t>;

    CounterSet() = default;

    /** Adopt @p items, already in ascending unique-name order. */
    explicit CounterSet(std::vector<Item> items) : items_(std::move(items))
    {
    }

    /** Add (or overwrite) one entry. */
    void set(std::string name, std::uint64_t value);

    /** Value by name; 0 when absent. */
    std::uint64_t value(std::string_view name) const;

    bool contains(std::string_view name) const;

    /** Sum @p other into this set, name by name. */
    void merge(const CounterSet &other);

    /** Copy with zero-valued entries dropped. */
    CounterSet nonzero() const;

    bool empty() const { return items_.empty(); }
    std::size_t size() const { return items_.size(); }

    /** Entries in ascending name order. */
    const std::vector<Item> &items() const { return items_; }

    friend bool
    operator==(const CounterSet &a, const CounterSet &b)
    {
        return a.items_ == b.items_;
    }

  private:
    std::vector<Item> items_; ///< kept sorted by name

    std::vector<Item>::iterator lowerBound(std::string_view name);
    std::vector<Item>::const_iterator
    lowerBound(std::string_view name) const;
};

/**
 * Registry of named counters.  One process-wide instance backs the
 * instrumented library; tests may create private instances.
 *
 * Registration and name-indexed reads are internally locked: handles
 * bind lazily (function-local statics on whatever thread first uses
 * an instrumented path), and a live telemetry scrape (`sched91
 * serve`'s stats endpoint) may snapshot the registry at the same
 * moment.  Id-indexed hot-path accessors (size, increment, value,
 * kind, slotAddress, snapshotInto) stay lock-free: slots and kinds
 * live in fixed-capacity flat arrays, so registration never relocates
 * an existing slot, and the size is published only once the new slot
 * exists.
 */
class CounterRegistry
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /** Most counters one registry holds (the library's roster is ~50;
     * registering past this panics). */
    static constexpr std::size_t kCapacity = 256;

    /** The process-wide registry the Counter handles bind to. */
    static CounterRegistry &global();

    CounterRegistry() = default;
    CounterRegistry(const CounterRegistry &) = delete;
    CounterRegistry &operator=(const CounterRegistry &) = delete;

    /**
     * Register a new counter.  A duplicate name, or one past
     * kCapacity, is a programming error and panics; use getOrAdd() for
     * idempotent binding.
     */
    std::size_t add(std::string_view name,
                    CounterKind kind = CounterKind::Sum);

    /** Id of an existing counter, or register it. */
    std::size_t getOrAdd(std::string_view name,
                         CounterKind kind = CounterKind::Sum);

    /** Id by name, npos when absent. */
    std::size_t find(std::string_view name) const;

    /** Registered counters; ids below this are valid. */
    std::size_t size() const
    {
        return size_.load(std::memory_order_acquire);
    }

    const std::string &name(std::size_t id) const { return names_[id]; }
    CounterKind kind(std::size_t id) const { return kinds_[id]; }
    /** Kinds indexed by id (valid below size()). */
    const CounterKind *kinds() const { return kinds_.data(); }
    std::uint64_t value(std::size_t id) const { return slots_[id]; }

    /** Kind by name; Sum when the name is not registered. */
    CounterKind kindByName(std::string_view name) const;

    /** Value by name; 0 when absent (so probes never fault). */
    std::uint64_t valueByName(std::string_view name) const;

    void increment(std::size_t id, std::uint64_t by = 1)
    {
        slots_[id] += by;
    }

    /** Raise a high-water-mark counter to @p v if it is larger. */
    void recordMax(std::size_t id, std::uint64_t v)
    {
        if (v > slots_[id])
            slots_[id] = v;
    }

    /** Zero every slot (registrations are kept). */
    void resetAll();

    /** Snapshot of all counters, by name. */
    CounterSet snapshot() const;

    /** Snapshot of all counters, by id, into @p out (its storage is
     * reused; the size is read once). */
    void snapshotInto(CounterValues &out) const;

    /** now - before, name by name (names absent from @p before count
     * from zero). */
    CounterSet deltaSince(const CounterSet &before) const;

    /** Stable slot address for handle-based increments. */
    std::uint64_t *slotAddress(std::size_t id) { return &slots_[id]; }

  private:
    std::size_t addLocked(std::string_view name, CounterKind kind);
    std::size_t findLocked(std::string_view name) const;

    /** Guards registration and the name index; by-id reads need no
     * lock (existing elements never move on append). */
    mutable std::mutex regMu_;
    std::deque<std::string> names_;
    std::array<CounterKind, kCapacity> kinds_{};
    std::array<std::uint64_t, kCapacity> slots_{}; ///< stable addresses
    std::map<std::string, std::size_t, std::less<>> index_;
    std::atomic<std::size_t> size_{0};
};

/**
 * Counter values indexed by registry id: a snapshot of a registry or
 * shard, or a delta between two.  Hot paths copy and subtract these
 * flat arrays; names are attached only when output is rendered
 * (named()).  Ids past size() read as zero, so an array taken before
 * a later registration still combines with one taken after.
 */
class CounterValues
{
  public:
    CounterValues() : CounterValues(CounterRegistry::global()) {}

    explicit CounterValues(const CounterRegistry &registry)
        : registry_(&registry)
    {
    }

    const CounterRegistry &registry() const { return *registry_; }

    std::size_t size() const { return slots_.size(); }

    /** Value by id; 0 past the end. */
    std::uint64_t
    value(std::size_t id) const
    {
        return id < slots_.size() ? slots_[id] : 0;
    }

    /** Value by name; 0 when absent.  A locked name lookup: for tests
     * and renderers, not hot paths. */
    std::uint64_t value(std::string_view name) const;

    /** Writable slot @p id; grows the array (zero-filled) to cover
     * it.  Growing no further keeps a shard as short as the highest id
     * it has counted, and the roster registers the per-block 'a'/'f'/
     * 'b'/'v' counters first, so block-level copies and deltas stay
     * short. */
    std::uint64_t &
    slot(std::size_t id)
    {
        if (id >= slots_.size())
            slots_.resize(id + 1, 0);
        return slots_[id];
    }

    /** Zero every value (the size is kept). */
    void clear() { std::fill(slots_.begin(), slots_.end(), 0); }

    /**
     * Accumulate the interval @p now - @p before, kind-aware: Sum ids
     * add the difference, clamped at zero so a reset source never
     * yields an underflowed delta; Max ids keep the larger of the held
     * value and @p now's — a high-water mark has no meaningful
     * subtraction, so a gauge reports its current peak as-is.  On an
     * empty array this computes the delta itself; with an empty
     * @p before it is a kind-aware merge.
     */
    void addDelta(const CounterValues &now, const CounterValues &before);

    /** Element-wise @p before subtracted in place, clamped at zero,
     * whatever the kinds: the delta of a source whose Max slots are
     * run-long peaks (a registry), not per-interval ones (a shard). */
    void subtract(const CounterValues &before);

    /** Kind-aware merge: Sum ids add, Max ids keep the larger value. */
    void
    merge(const CounterValues &from)
    {
        addDelta(from, CounterValues(*registry_));
    }

    /** Every held id with its registry name, in ascending name order
     * (zeros included; renderers drop them with nonzero()). */
    CounterSet named() const;

  private:
    friend class CounterRegistry;

    const CounterRegistry *registry_;
    std::vector<std::uint64_t> slots_;
};

/**
 * Bookkeeping for periodic delta emission (`--snapshot-seconds`):
 * remembers the previous observation and yields the kind-aware delta
 * each time a new snapshot arrives.  The first advance() deltas
 * against zero, so the first emitted snapshot covers everything since
 * startup.
 */
class SnapshotDeltaTracker
{
  public:
    explicit SnapshotDeltaTracker(const CounterRegistry &registry)
        : last_(registry)
    {
    }

    /** Delta of @p now against the previous call; remembers @p now. */
    CounterValues advance(const CounterValues &now);

  private:
    CounterValues last_;
};

/**
 * Thread-private mirror of a registry's slots.  Instrumentation
 * handles route into the installed shard instead of the shared slots,
 * so workers never write the same memory; flushInto() folds the shard
 * back (kind-aware) once the owning thread has quiesced.
 *
 * The pipeline clears the shard at each block boundary, which also
 * makes Max gauges *per-block* peaks — exactly the value a per-block
 * delta should report, independent of which blocks ran earlier on the
 * same worker.
 */
class CounterShard
{
  public:
    explicit CounterShard(CounterRegistry &registry)
        : registry_(&registry), slots_(registry)
    {
    }

    CounterRegistry &registry() const { return *registry_; }

    void add(std::size_t id, std::uint64_t n) { slots_.slot(id) += n; }

    void
    recordMax(std::size_t id, std::uint64_t v)
    {
        std::uint64_t &slot = slots_.slot(id);
        if (v > slot)
            slot = v;
    }

    std::uint64_t value(std::size_t id) const { return slots_.value(id); }

    /** This shard's values: copying them is the snapshot. */
    const CounterValues &values() const { return slots_; }

    /** Zero every slot (capacity is kept for reuse). */
    void clear() { slots_.clear(); }

    /** Fold this shard into another (kind-aware); both must mirror the
     * same registry. */
    void flushInto(CounterShard &into) const;

    /** Fold this shard into the shared registry slots (kind-aware). */
    void flushInto(CounterRegistry &into) const;

  private:
    CounterRegistry *registry_;
    CounterValues slots_;
};

/** RAII installer: route this thread's counter traffic into @p shard. */
class ScopedCounterShard
{
  public:
    explicit ScopedCounterShard(CounterShard &shard)
        : prev_(detail::t_shard)
    {
        detail::t_shard = &shard;
    }

    ~ScopedCounterShard() { detail::t_shard = prev_; }

    ScopedCounterShard(const ScopedCounterShard &) = delete;
    ScopedCounterShard &operator=(const ScopedCounterShard &) = delete;

  private:
    CounterShard *prev_;
};

/**
 * Cheap instrumentation handle bound to one registry slot.  Intended
 * for namespace-scope inline definitions (see obs/events.hh): binding
 * happens once at static initialization, and the hot-path cost of
 * inc()/max() with observability disabled is the single branch the
 * acceptance contract allows.  When enabled, increments divert to the
 * calling thread's installed CounterShard, if any.
 */
class Counter
{
  public:
    /** Bind to (registering if needed) @p name in the global registry. */
    explicit Counter(const char *name,
                     CounterKind kind = CounterKind::Sum)
        : Counter(CounterRegistry::global(), name, kind)
    {
    }

    Counter(CounterRegistry &registry, const char *name,
            CounterKind kind = CounterKind::Sum)
        : registry_(&registry), id_(registry.getOrAdd(name, kind)),
          slot_(registry.slotAddress(id_)), name_(name)
    {
    }

    void inc(std::uint64_t n = 1)
    {
        if (!detail::g_enabled)
            return;
        if (CounterShard *shard = detail::t_shard;
            shard && &shard->registry() == registry_)
            shard->add(id_, n);
        else
            *slot_ += n;
    }

    /** Record a high-water mark (gauge-style counter). */
    void max(std::uint64_t v)
    {
        if (!detail::g_enabled)
            return;
        if (CounterShard *shard = detail::t_shard;
            shard && &shard->registry() == registry_)
            shard->recordMax(id_, v);
        else if (v > *slot_)
            *slot_ = v;
    }

    std::uint64_t value() const { return *slot_; }
    std::size_t id() const { return id_; }
    const char *name() const { return name_; }

  private:
    CounterRegistry *registry_;
    std::size_t id_;
    std::uint64_t *slot_;
    const char *name_;
};

} // namespace sched91::obs

#endif // SCHED91_OBS_COUNTERS_HH
