/**
 * @file
 * The paper's Section 3 "ideal execution environment": a machine limited
 * only by true-data dependencies, a finite instruction window, and an
 * artificial fetch/issue rate — free of control dependencies, name
 * dependencies and structural conflicts (§3.1).
 *
 * Timing model (matching Table 3.2's 4-stage pipeline):
 *   - instruction i is fetched in cycle floor(i / fetchRate) + 1;
 *   - it can execute no earlier than fetch + 2 (decode/issue in between);
 *   - a source operand produced by p is ready in cycle exec(p) + 1, or at
 *     issue when the classified value predictor supplied a correct value,
 *     or in exec(p) + 1 + penalty when the prediction was wrong
 *     (selective reissue of the dependent instruction);
 *   - the window admits at most windowSize in-flight instructions:
 *     exec(i) >= exec(i - windowSize) + 1 (a slot frees at execute);
 *   - all execution latencies are one cycle; predictor tables and
 *     classification counters are unbounded.
 */

#ifndef VPSIM_CORE_IDEAL_MACHINE_HPP
#define VPSIM_CORE_IDEAL_MACHINE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "predictor/factory.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace vpsim
{

/** Which instructions the value predictor covers. */
enum class VpScope
{
    /** Every value-producing instruction (the paper's configuration). */
    AllInstructions,
    /** Loads only — the original LVP proposal of Lipasti et al. [13]. */
    LoadsOnly,
};

/** Configuration of one ideal-machine run. */
struct IdealMachineConfig
{
    /** Instructions fetched (and issued) per cycle: 4/8/16/32/40. */
    unsigned fetchRate = 4;
    /** Instruction window entries (paper: 40). */
    unsigned windowSize = 40;
    /** Cycles between fetch and earliest execute (fetch + decode). */
    unsigned frontendLatency = 2;
    /** Cycles lost by a dependent on a value misprediction (paper: 1). */
    unsigned vpPenalty = 1;

    /** Use value prediction at all (off = baseline machine). */
    bool useValuePrediction = false;
    /** Pretend every prediction is correct (Table 3.2's perfect VP). */
    bool perfectValuePrediction = false;
    /** Which raw predictor to classify (paper: stride). */
    PredictorKind predictorKind = PredictorKind::Stride;
    /** Classifier counter width (paper: 2). */
    unsigned counterBits = 2;
    /** Classifier reaction to a wrong raw prediction. */
    MissPolicy missPolicy = MissPolicy::Reset;
    /** Table capacity; 0 = infinite (paper's Section 3 assumption). */
    std::size_t tableCapacity = 0;
    /** Instruction coverage (paper: all value producers). */
    VpScope vpScope = VpScope::AllInstructions;
};

/** Outcome of one ideal-machine run. */
struct IdealMachineResult
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0.0;

    /** Classified predictions issued / correct / wrong. */
    std::uint64_t predictionsMade = 0;
    std::uint64_t predictionsCorrect = 0;
    std::uint64_t predictionsWrong = 0;
    /**
     * Operand uses whose producer's value was correctly predicted
     * (one producer instance can feed several consumers).
     */
    std::uint64_t correctlyPredictedUses = 0;
    /**
     * Operand uses whose real value was not yet available when the
     * consumer could otherwise have issued (fetch + window permitting):
     * the dependences a value predictor could possibly help with. Grows
     * with fetch bandwidth — the paper's Section 3 mechanism.
     */
    std::uint64_t stallingUses = 0;
    /**
     * Correctly predicted uses that actually shortened the consumer's
     * execution — the paper's key observable: at a low fetch rate most
     * correct predictions are useless because the operand is ready
     * anyway.
     */
    std::uint64_t usefulPredictions = 0;

    /** Execute cycle per instruction (filled when requested). */
    std::vector<Cycle> execCycle;

    /** Multi-line human-readable summary of this run. */
    std::string report() const;
};

/**
 * Run the ideal machine over @p source (rewound first).
 *
 * This is the primary entry point: the hot loop iterates borrowed
 * spans from TraceSource::nextBlock(), so per-instruction work is a
 * pointer walk with no virtual dispatch.
 *
 * @param source Trace in program order; reset() is called before use.
 * @param config Machine configuration.
 * @param keep_schedule Also return per-instruction execute cycles (used
 *        by the Table 3.2 reproduction test).
 */
IdealMachineResult runIdealMachine(TraceSource &source,
                                   const IdealMachineConfig &config,
                                   bool keep_schedule = false);

/** Convenience overload over an in-memory trace (borrows @p records). */
IdealMachineResult runIdealMachine(const std::vector<TraceRecord> &records,
                                   const IdealMachineConfig &config,
                                   bool keep_schedule = false);

/**
 * The classified-prediction outcome of every instruction of one trace
 * under one predictor configuration: 2 bits per instruction (predicted,
 * correct; both clear for instructions the predictor never sees), plus
 * the live predictor's end-of-trace counters.
 *
 * The ideal machine's predictor trains immediately on the actual
 * value, so these outcomes do not depend on fetch rate, window,
 * front-end latency or misprediction penalty: one column serves every
 * timing configuration of a sweep (core/ideal_sweep.hpp).
 */
class OutcomeColumn
{
  public:
    static constexpr unsigned predictedBit = 1;
    static constexpr unsigned correctBit = 2;

    /** Instructions covered (the trace length it was computed on). */
    std::uint64_t size() const { return count; }

    /** Outcome bits of instruction @p i; 0 past the end. */
    unsigned
    at(std::uint64_t i) const
    {
        if (i >= count)
            return 0;
        return static_cast<unsigned>(words[i / perWord] >>
                                     (i % perWord * 2)) &
               3u;
    }

    /** @name The live predictor's counters after the whole trace */
    /// @{
    std::uint64_t predictionsMade = 0;
    std::uint64_t predictionsCorrect = 0;
    std::uint64_t predictionsWrong = 0;
    /// @}

    /** Append the outcome bits of the next instruction. */
    void
    push(unsigned bits)
    {
        if (count % perWord == 0)
            words.push_back(0);
        words.back() |= static_cast<std::uint64_t>(bits & 3u)
                        << (count % perWord * 2);
        ++count;
    }

  private:
    static constexpr std::uint64_t perWord = 32;

    std::vector<std::uint64_t> words;
    std::uint64_t count = 0;
};

/**
 * One pass of the live classified predictor of @p config over
 * @p source (rewound first), in exactly the order runIdealMachine()
 * consults it: the outcome column of config's predictor key.
 */
OutcomeColumn computeOutcomes(TraceSource &source,
                              const IdealMachineConfig &config);

/**
 * runIdealMachine() with the predictor replayed from @p outcomes
 * instead of run live. Gives the live run's result bit for bit when
 * @p outcomes was computed on the same trace with the same predictor
 * key; the always-on checks ideal.replay_length and
 * ideal.replay_predictions catch a column applied to another trace or
 * a prefix. @p config must use classified (not perfect) prediction.
 */
IdealMachineResult runIdealMachine(TraceSource &source,
                                   const IdealMachineConfig &config,
                                   const OutcomeColumn &outcomes,
                                   bool keep_schedule = false);

/**
 * Convenience for the Figure 3.1 experiment: the speedup of value
 * prediction at a given fetch rate, i.e. cycles(no VP) / cycles(VP) on
 * machines with identical fetch rate. Evaluated through a one-off
 * IdealSweep (core/ideal_sweep.hpp): one predictor pass, one replayed
 * VP run and one no-VP run over @p source (rewinding each time).
 */
double idealVpSpeedup(TraceSource &source,
                      const IdealMachineConfig &config);

/** Convenience overload over an in-memory trace (borrows @p records). */
double idealVpSpeedup(const std::vector<TraceRecord> &records,
                      const IdealMachineConfig &config);

} // namespace vpsim

#endif // VPSIM_CORE_IDEAL_MACHINE_HPP
