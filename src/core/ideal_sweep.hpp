/**
 * @file
 * Sweep fusion for the Section 3 ideal machine.
 *
 * A sweep re-simulates one trace across many machine configurations
 * (Figure 3.1's fetch rates, the window/penalty/table-size ablations,
 * the fleet grid). In the ideal machine the classified predictor
 * trains immediately on the actual value, so:
 *
 *  - a prediction's outcome depends only on the trace and the
 *    PredictorKey (kind, table capacity, counter bits, miss policy,
 *    VP scope) — never on fetch rate, window, front-end latency or
 *    penalty;
 *  - the no-VP schedule depends only on the trace and the TimingKey
 *    (window, fetch rate, front-end latency).
 *
 * IdealSweep memoizes both over one trace: an OutcomeColumn per
 * predictor key (one live predictor pass, then every VP run of that
 * key replays it) and a no-VP result per timing key. Results are bit
 * for bit those of live runIdealMachine() pairs. The rule does not
 * hold where prediction depends on timing — the pipeline machine and
 * the delayed-update ablations — and those do not use this class.
 *
 * Thread safety: every member may be called concurrently. The first
 * caller of a key computes its entry; concurrent callers of the same
 * key wait for it (SimRunner shares one sweep per grid row between
 * its worker threads).
 */

#ifndef VPSIM_CORE_IDEAL_SWEEP_HPP
#define VPSIM_CORE_IDEAL_SWEEP_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "common/cancellation.hpp"
#include "common/thread_annotations.hpp"
#include "core/ideal_machine.hpp"

namespace vpsim
{

/** The configuration a classified prediction's outcome depends on. */
struct PredictorKey
{
    PredictorKind kind = PredictorKind::Stride;
    std::size_t tableCapacity = 0;
    unsigned counterBits = 2;
    MissPolicy missPolicy = MissPolicy::Reset;
    VpScope vpScope = VpScope::AllInstructions;

    static PredictorKey
    of(const IdealMachineConfig &config)
    {
        return {config.predictorKind, config.tableCapacity,
                config.counterBits, config.missPolicy, config.vpScope};
    }

    bool
    operator<(const PredictorKey &other) const
    {
        return std::tie(kind, tableCapacity, counterBits, missPolicy,
                        vpScope) <
               std::tie(other.kind, other.tableCapacity,
                        other.counterBits, other.missPolicy,
                        other.vpScope);
    }
};

/** The configuration the no-VP schedule depends on. */
struct TimingKey
{
    unsigned windowSize = 40;
    unsigned fetchRate = 4;
    unsigned frontendLatency = 2;

    static TimingKey
    of(const IdealMachineConfig &config)
    {
        return {config.windowSize, config.fetchRate,
                config.frontendLatency};
    }

    bool
    operator<(const TimingKey &other) const
    {
        return std::tie(windowSize, fetchRate, frontendLatency) <
               std::tie(other.windowSize, other.fetchRate,
                        other.frontendLatency);
    }
};

/**
 * Thread-safe compute-once map: the first get() of a key runs its
 * computation outside the lock; concurrent get()s of that key wait for
 * the value. A computation that throws releases its key, so a waiter
 * takes over (under its own job's cancellation token).
 */
template <typename Key, typename Value>
class ComputeOnceMap
{
  public:
    /**
     * @param max_entries Finished entries kept (0 = no bound). When a
     *        new key finds the map full, the finished entries are
     *        dropped first: a sweep moving on to a new predictor key is
     *        done with the old ones.
     */
    explicit ComputeOnceMap(std::size_t max_entries = 0)
        : capacity(max_entries)
    {
    }

    /** The value of @p key, computed by @p compute if absent. */
    template <typename Compute>
    Value
    get(const Key &key, Compute &&compute) EXCLUDES(mutex)
    {
        {
            MutexLock lock(mutex);
            std::uint64_t waited = 0;
            for (auto it = slots.find(key); it != slots.end();
                 it = slots.find(key)) {
                if (it->second.ready)
                    return it->second.value;
                // Another job is computing this entry. The waiter is
                // idle, not stuck: it heartbeats so the --job-timeout
                // watchdog leaves it alone. The computing job is
                // watched on its own; if it is canceled its entry is
                // released and this waiter computes instead.
                published.wait_for(lock.native(),
                                   std::chrono::milliseconds(20));
                simHeartbeat(++waited);
            }
            if (capacity != 0 && finished >= capacity) {
                std::erase_if(slots,
                              [](const auto &slot) {
                                  return slot.second.ready;
                              });
                finished = 0;
            }
            slots.emplace(key, Slot{});
        }
        Value value;
        try {
            value = compute();
        } catch (...) {
            {
                MutexLock lock(mutex);
                slots.erase(key);
            }
            published.notify_all();
            throw;
        }
        {
            MutexLock lock(mutex);
            Slot &slot = slots[key];
            slot.value = value;
            slot.ready = true;
            ++finished;
        }
        published.notify_all();
        return value;
    }

  private:
    struct Slot
    {
        bool ready = false;
        Value value{};
    };

    const std::size_t capacity;
    Mutex mutex;
    std::condition_variable published;
    std::map<Key, Slot> slots GUARDED_BY(mutex);
    /** Entries of @c slots whose value is ready. */
    std::size_t finished GUARDED_BY(mutex) = 0;
};

/** Memoized ideal-machine evaluation of many configs over one trace. */
class IdealSweep
{
  public:
    /**
     * @param max_columns Outcome columns kept alive at once (0 = no
     *        bound); a new predictor key evicts the old columns once
     *        the bound is reached. Each column holds 2 bits per trace
     *        instruction.
     */
    explicit IdealSweep(std::size_t max_columns = 0);

    /**
     * runIdealMachine(source, config) from the memos: the no-VP result
     * of the config's timing key, or a replay of its predictor key's
     * outcome column. Perfect-VP configs have no predictor to fuse and
     * run live. Every call must pass a source over the same trace.
     */
    IdealMachineResult run(TraceSource &source,
                           const IdealMachineConfig &config);

    /** idealVpSpeedup(source, config), from the memos. */
    double vpSpeedup(TraceSource &source,
                     const IdealMachineConfig &config);

    /** Convenience overload over an in-memory trace. */
    double vpSpeedup(const std::vector<TraceRecord> &records,
                     const IdealMachineConfig &config);

    /** Work done so far (each a whole pass over the trace). */
    struct Counters
    {
        /** Live predictor passes (outcome columns computed). */
        std::uint64_t predictorPasses = 0;
        /** No-VP machine runs (timing keys computed). */
        std::uint64_t baselineRuns = 0;
        /** VP runs replayed from an outcome column. */
        std::uint64_t replays = 0;
    };
    Counters counters() const;

  private:
    ComputeOnceMap<PredictorKey, std::shared_ptr<const OutcomeColumn>>
        columns;
    ComputeOnceMap<TimingKey, IdealMachineResult> baselines;
    std::atomic<std::uint64_t> predictorPasses{0};
    std::atomic<std::uint64_t> baselineRuns{0};
    std::atomic<std::uint64_t> replays{0};
};

} // namespace vpsim

#endif // VPSIM_CORE_IDEAL_SWEEP_HPP
