#include "core/ideal_machine.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "common/cancellation.hpp"
#include "common/invariant.hpp"
#include "common/logging.hpp"
#include "isa/instruction.hpp"

namespace vpsim
{

namespace
{

/**
 * Field accessors over an AoS block (a TraceSpan). The engine's block
 * worker is templated over this interface so the same loop body
 * compiles once against record gathers and once against columnar
 * array loads.
 */
struct SpanBlockView
{
    const TraceRecord *records;
    std::size_t count;

    std::size_t size() const { return count; }
    Addr pc(std::size_t k) const { return records[k].pc; }
    Value result(std::size_t k) const { return records[k].result; }
    OpCode op(std::size_t k) const { return records[k].op; }
    RegIndex rd(std::size_t k) const { return records[k].rd; }
    RegIndex rs1(std::size_t k) const { return records[k].rs1; }
    RegIndex rs2(std::size_t k) const { return records[k].rs2; }
};

/**
 * Field accessors over a SoA block (TraceColumns): each field is a
 * sequential stream over its own contiguous array, so the block loop
 * touches only the ~20 bytes per instruction it actually uses instead
 * of pulling whole 48-byte records through the cache.
 */
struct ColumnsBlockView
{
    TraceColumns cols;

    std::size_t size() const { return cols.count; }
    Addr pc(std::size_t k) const { return cols.pc[k]; }
    Value result(std::size_t k) const { return cols.result[k]; }
    OpCode op(std::size_t k) const { return cols.op[k]; }
    RegIndex rd(std::size_t k) const { return cols.rd[k]; }
    RegIndex rs1(std::size_t k) const { return cols.rs1[k]; }
    RegIndex rs2(std::size_t k) const { return cols.rs2[k]; }
};

/**
 * True when the value predictor sees this instruction: it writes a
 * real register and falls inside the configured prediction scope.
 */
bool
predictsValue(OpCode op, RegIndex rd, VpScope scope)
{
    const bool produces_value =
        writesDest(op) && rd != invalidReg && rd != 0;
    return produces_value && (scope == VpScope::AllInstructions ||
                              instClassOf(op) == InstClass::Load);
}

/**
 * Visit every block of @p source (rewound first) as a SpanBlockView,
 * or as a ColumnsBlockView when the source delivers columns.
 */
template <typename Visit> void
forEachBlock(TraceSource &source, Visit &&visit)
{
    source.reset();
    if (source.supportsColumns()) {
        // Columnar fast path: the block loop streams per-field arrays
        // (SoA) instead of gathering from 48-byte records.
        TraceColumns cols;
        while (source.nextColumns(cols))
            visit(ColumnsBlockView{cols});
    } else {
        TraceSpan block;
        while (source.nextBlock(block))
            visit(SpanBlockView{block.data(), block.size()});
    }
}

/**
 * Batched predictor-table probe (one call per delivered block): lets
 * every table on the predictor's path prefetch the slots of the
 * block's predicted pcs before the sequential walk probes them one by
 * one. Pure cache hint, no predictor state change.
 */
struct TableProbe
{
    ClassifiedPredictor &predictor;
    const VpScope scope;
    /** Gather scratch for AoS blocks. */
    std::vector<Addr> pcs;

    void
    operator()(const SpanBlockView &block)
    {
        pcs.clear();
        const std::size_t n = block.size();
        for (std::size_t k = 0; k < n; ++k) {
            if (predictsValue(block.op(k), block.rd(k), scope))
                pcs.push_back(block.pc(k));
        }
        if (!pcs.empty())
            predictor.probeBlock(pcs.data(), pcs.size());
    }

    void
    operator()(const ColumnsBlockView &block)
    {
        // The pc column is already contiguous: hand it to the tables
        // whole instead of paying a gather pass. The few non-value-
        // producing pcs prefetch a line that goes unused; that costs
        // less than filtering them out.
        if (block.cols.count != 0)
            predictor.probeBlock(block.cols.pc, block.cols.count);
    }
};

/**
 * The span-iterating ideal-machine engine.
 *
 * All loop state lives here so the per-block worker can be specialized
 * at compile time: processBlock<UseVp, Replay, FullChecks> is
 * instantiated per (value prediction, prediction source, deep-check)
 * combination and dispatched once per delivered block, so the
 * per-instruction path of a plain baseline run carries no dead
 * prediction branches and no invariant polling at all. A replayed run
 * reads each prediction's outcome from an OutcomeColumn instead of
 * calling the live predictor.
 * Record index, window-ring slot (== i % windowSize) and fetch cycle
 * (== i / fetchRate + 1) are carried incrementally across blocks: the
 * batched loop pays no per-record divide or modulo.
 */
struct IdealEngine
{
    /** What consumers need to know about a register's last writer. */
    struct Writer
    {
        Cycle execCycle = 0;
        bool exists = false;
        bool predicted = false;
        bool correct = false;
    };

    const IdealMachineConfig &config;
    IdealMachineResult &result;
    const bool keepSchedule;
    ClassifiedPredictor *predictor = nullptr;
    /** Replay source (replaces @c predictor when set). */
    const OutcomeColumn *outcomes = nullptr;

    std::vector<Writer> lastWriter;
    /** Ring buffer of the last windowSize execute cycles. */
    std::vector<Cycle> windowExec;

    Cycle maxExec = 0;
    std::uint64_t i = 0;
    std::size_t windowSlot = 0;
    Cycle fetchCycle = 1;
    unsigned fetchSlot = 0;
    /** Predicted outcomes a replayed run consumed. */
    std::uint64_t replayedPredictions = 0;

    /**
     * The writer table spans the full RegIndex range so operand lookup
     * can index by raw register byte with no validity pre-check:
     * producesValue() never marks r0 or invalidReg as written, so
     * those entries stay !exists forever and read as "no producer".
     */
    static constexpr std::size_t writerTableSize = 256;

    IdealEngine(const IdealMachineConfig &machine_config,
                IdealMachineResult &machine_result, bool keep_schedule)
        : config(machine_config), result(machine_result),
          keepSchedule(keep_schedule), lastWriter(writerTableSize),
          windowExec(machine_config.windowSize, 0)
    {
    }

    template <bool UseVp, bool Replay, typename Block> void
    dispatchChecks(const Block &block, bool full_checks)
    {
        if (full_checks)
            keepSchedule ? processBlock<UseVp, Replay, true, true>(block)
                         : processBlock<UseVp, Replay, true, false>(block);
        else
            keepSchedule ? processBlock<UseVp, Replay, false, true>(block)
                         : processBlock<UseVp, Replay, false, false>(block);
    }

    template <typename Block> void
    dispatchBlock(const Block &block, bool full_checks)
    {
        if (!config.useValuePrediction)
            dispatchChecks<false, false>(block, full_checks);
        else if (outcomes != nullptr)
            dispatchChecks<true, true>(block, full_checks);
        else
            dispatchChecks<true, false>(block, full_checks);
    }

    template <bool UseVp, bool Replay, bool FullChecks, bool KeepSchedule,
              typename Block> void
    processBlock(const Block &block)
    {
        const unsigned window_size = config.windowSize;
        const unsigned fetch_rate = config.fetchRate;
        const Cycle frontend_latency = config.frontendLatency;
        const Cycle vp_penalty = config.vpPenalty;
        Writer *const writers = lastWriter.data();
        Cycle *const window = windowExec.data();

        // Loop state lives in locals for the duration of the block and
        // is written back once at the end: in the <false, false, false>
        // instantiation the inner loop then makes no opaque calls at
        // all, so everything below stays in registers.
        std::uint64_t i = this->i;
        std::size_t window_slot = this->windowSlot;
        Cycle fetch_cycle = this->fetchCycle;
        unsigned fetch_slot = this->fetchSlot;
        Cycle max_exec = this->maxExec;
        std::uint64_t stalling_uses = 0;
        std::uint64_t correctly_predicted_uses = 0;
        std::uint64_t useful_predictions = 0;
        std::uint64_t perfect_predictions = 0;
        std::uint64_t replayed_predictions = 0;

        const std::size_t block_size = block.size();
        for (std::size_t k = 0; k < block_size; ++k) {
        Cycle earliest = fetch_cycle + frontend_latency;

        // Window constraint: the slot of instruction i - windowSize
        // must have freed (at its execute) before i can execute.
        if (i >= window_size) {
            earliest = std::max(earliest, window[window_slot] + 1);
        }

        // Operand constraints. A consumer issues as soon as its
        // non-predicted operands are ready (predicted operands impose no
        // issue constraint: the consumer speculates on the predicted
        // value). An operand whose prediction was WRONG only costs the
        // reissue penalty if the consumer actually speculated on it,
        // i.e. if the real value was not yet available at issue time —
        // when the consumer issues late anyway, it reads the real value
        // and the prediction is merely useless, exactly the paper's
        // "the prediction becomes useless" case.
        //
        // Everything below is straight-line select arithmetic, not
        // branches: whether an operand was predicted / correct flips
        // with the simulated values, so a branchy encoding pays a
        // branch misprediction per dependent instruction. A missing
        // operand (no writer, r0, invalid) reads as ready == 0, which
        // every max/compare treats as "imposes nothing".
        const Writer &wr1 = writers[block.rs1(k)];
        const Writer &wr2 = writers[block.rs2(k)];
        const Cycle ready1 = wr1.exists ? wr1.execCycle + 1 : 0;
        const Cycle ready2 = wr2.exists ? wr2.execCycle + 1 : 0;
        stalling_uses += ready1 > earliest ? 1 : 0;
        stalling_uses += ready2 > earliest ? 1 : 0;

        // Issue: non-predicted operands bind. Completion: wrong
        // speculations reissue after the real value, in ascending
        // ready order (a later wrong operand sees the delay already
        // caused by an earlier one); an operand whose real value
        // arrived by the current execute never speculated, so it
        // imposes nothing.
        Cycle issue = earliest;
        Cycle exec;
        if constexpr (UseVp) {
            // 0 = binds at issue, 1 = predicted correct, 2 = wrong.
            const unsigned kind1 =
                (wr1.exists && wr1.predicted) ? (wr1.correct ? 1u : 2u)
                                              : 0u;
            const unsigned kind2 =
                (wr2.exists && wr2.predicted) ? (wr2.correct ? 1u : 2u)
                                              : 0u;
            issue = std::max(issue, kind1 == 0 ? ready1 : Cycle{0});
            issue = std::max(issue, kind2 == 0 ? ready2 : Cycle{0});
            exec = issue;
            const Cycle wrong1 = kind1 == 2 ? ready1 : Cycle{0};
            const Cycle wrong2 = kind2 == 2 ? ready2 : Cycle{0};
            const Cycle lo = std::min(wrong1, wrong2);
            const Cycle hi = std::max(wrong1, wrong2);
            exec = lo > exec ? lo + vp_penalty : exec;
            exec = hi > exec ? hi + vp_penalty : exec;
            // A correct prediction was useful when the operand would
            // otherwise have delayed the consumer past its actual
            // execute.
            correctly_predicted_uses +=
                (kind1 == 1 ? 1 : 0) + (kind2 == 1 ? 1 : 0);
            useful_predictions += (kind1 == 1 && ready1 > exec) ? 1 : 0;
            useful_predictions += (kind2 == 1 && ready2 > exec) ? 1 : 0;
        } else {
            issue = std::max(issue, ready1);
            issue = std::max(issue, ready2);
            exec = issue;
        }
        if (FullChecks) {
            // Deep audit: the slot being recycled must have freed
            // before this execute (re-reads the ring buffer the
            // scheduler used, so a future refactor that drops the
            // window bound is caught).
            if (i >= window_size) {
                checkInvariant(
                    InvariantLevel::Full,
                    exec >= window[window_slot] + 1,
                    "ideal.window_slot_reuse", [&] {
                        return "inst " + std::to_string(i) +
                               " executes in " + std::to_string(exec) +
                               " but its window slot frees in " +
                               std::to_string(window[window_slot]);
                    });
            }
            checkInvariant(InvariantLevel::Full,
                           exec >= fetch_cycle + frontend_latency,
                           "ideal.frontend_latency", [&] {
                               return "inst " + std::to_string(i) +
                                      " executes in " +
                                      std::to_string(exec) +
                                      " before fetch " +
                                      std::to_string(fetch_cycle) +
                                      " + frontend latency";
                           });
        }
        window[window_slot] = exec;
        if (KeepSchedule)
            result.execCycle.push_back(exec);
        max_exec = std::max(max_exec, exec);

        // Record this instruction as the new last writer of rd, with
        // its own prediction outcome for downstream consumers.
        const OpCode op = block.op(k);
        const RegIndex rd = block.rd(k);
        const bool produces_value =
            writesDest(op) && rd != invalidReg && rd != 0;
        if (produces_value) {
            Writer writer;
            writer.exists = true;
            writer.execCycle = exec;
            if (UseVp) {
                const bool in_scope =
                    config.vpScope == VpScope::AllInstructions ||
                    instClassOf(op) == InstClass::Load;
                if (in_scope) {
                    if (config.perfectValuePrediction) {
                        writer.predicted = true;
                        writer.correct = true;
                        ++perfect_predictions;
                    } else if constexpr (Replay) {
                        const unsigned outcome = outcomes->at(i);
                        writer.predicted =
                            (outcome & OutcomeColumn::predictedBit) != 0;
#ifndef VPSIM_MUTATION_IDEAL_REPLAY_DROP_CORRECT
                        // Mutation target: with -DVPSIM_MUTATION=
                        // ideal-replay-drop-correct every replayed
                        // correct prediction reads as wrong, which only
                        // the reference machine (its own live
                        // predictor) can notice.
                        writer.correct =
                            (outcome & OutcomeColumn::correctBit) != 0;
#endif
                        replayed_predictions += writer.predicted ? 1 : 0;
                    } else {
                        const Value actual = block.result(k);
                        const ClassifiedPrediction prediction =
                            predictor->predictAndTrain(block.pc(k),
                                                       actual);
                        writer.predicted = prediction.predicted;
                        writer.correct = prediction.predicted &&
                                         prediction.value == actual;
                    }
                }
            }
            writers[rd] = writer;
        }

        ++i;
        if (++window_slot == window_size)
            window_slot = 0;
        if (++fetch_slot == fetch_rate) {
            fetch_slot = 0;
            ++fetch_cycle;
        }
        }

        this->i = i;
        this->windowSlot = window_slot;
        this->fetchCycle = fetch_cycle;
        this->fetchSlot = fetch_slot;
        this->maxExec = max_exec;
        result.stallingUses += stalling_uses;
        result.correctlyPredictedUses += correctly_predicted_uses;
        result.usefulPredictions += useful_predictions;
        result.predictionsMade += perfect_predictions;
        result.predictionsCorrect += perfect_predictions;
        replayedPredictions += replayed_predictions;
    }
};

/**
 * Shared body of the live and replayed runs: @p outcomes, when set,
 * stands in for the live predictor.
 */
IdealMachineResult
runEngine(TraceSource &source, const IdealMachineConfig &config,
          bool keep_schedule, const OutcomeColumn *outcomes)
{
    fatalIf(config.fetchRate == 0, "fetch rate must be positive");
    fatalIf(config.windowSize == 0, "window size must be positive");

    IdealMachineResult result;

    std::unique_ptr<ClassifiedPredictor> predictor;
    if (config.useValuePrediction && !config.perfectValuePrediction &&
        outcomes == nullptr) {
        predictor = makeClassifiedPredictor(
            config.predictorKind, config.tableCapacity,
            config.counterBits, config.missPolicy);
    }

    IdealEngine engine(config, result, keep_schedule);
    engine.predictor = predictor.get();
    engine.outcomes = outcomes;
    std::optional<TableProbe> probe;
    if (predictor)
        probe.emplace(TableProbe{*predictor, config.vpScope, {}});

    forEachBlock(source, [&](const auto &view) {
        // Progress heartbeat for the --job-timeout watchdog and the
        // self-check level poll, hoisted to block granularity: one
        // thread-local store and one relaxed atomic load per <= 4096
        // records instead of per instruction.
        simHeartbeat(engine.i);
        if (probe)
            (*probe)(view);
        engine.dispatchBlock(view, invariantsActive(InvariantLevel::Full));
    });

    result.instructions = engine.i;
    if (outcomes != nullptr) {
        result.predictionsMade = outcomes->predictionsMade;
        result.predictionsCorrect = outcomes->predictionsCorrect;
        result.predictionsWrong = outcomes->predictionsWrong;
        // Always-on O(1) replay audits: a column computed on another
        // trace, or on a prefix of this one, must not pass as this
        // run's predictions.
        checkInvariant(InvariantLevel::Cheap,
                       outcomes->size() == result.instructions,
                       "ideal.replay_length", [&] {
                           return "outcome column of " +
                                  std::to_string(outcomes->size()) +
                                  " insts replayed over " +
                                  std::to_string(result.instructions);
                       });
        checkInvariant(InvariantLevel::Cheap,
                       engine.replayedPredictions ==
                           result.predictionsMade,
                       "ideal.replay_predictions", [&] {
                           return std::to_string(
                                      engine.replayedPredictions) +
                                  " predicted outcomes replayed != " +
                                  std::to_string(
                                      result.predictionsMade) +
                                  " predictions made";
                       });
    }
    if (engine.i == 0)
        return result;

    const Cycle max_exec = engine.maxExec;
    if (predictor) {
        result.predictionsMade = predictor->predictionsMade();
        result.predictionsCorrect = predictor->predictionsCorrect();
        result.predictionsWrong = predictor->predictionsWrong();
    }

    result.cycles = max_exec;
    result.ipc = static_cast<double>(result.instructions) /
                 static_cast<double>(result.cycles);

    // Always-on O(1) audits: the limit-study bound IPC <= fetch rate
    // (Mitrevski/Gusev-style validated-bound methodology) and the
    // predictor's lookup bookkeeping balance.
    checkInvariant(InvariantLevel::Cheap,
                   result.instructions <=
                       result.cycles * config.fetchRate,
                   "ideal.ipc_le_fetch_rate", [&] {
                       return std::to_string(result.instructions) +
                              " insts in " +
                              std::to_string(result.cycles) +
                              " cycles exceeds fetch rate " +
                              std::to_string(config.fetchRate);
                   });
    checkInvariant(InvariantLevel::Cheap,
                   result.predictionsMade ==
                       result.predictionsCorrect +
                           result.predictionsWrong,
                   "vp.hit_miss_balance", [&] {
                       return std::to_string(result.predictionsMade) +
                              " made != " +
                              std::to_string(result.predictionsCorrect) +
                              " correct + " +
                              std::to_string(result.predictionsWrong) +
                              " wrong";
                   });
    checkInvariant(InvariantLevel::Cheap,
                   result.usefulPredictions <=
                       result.correctlyPredictedUses,
                   "ideal.useful_le_correct_uses", [&] {
                       return std::to_string(result.usefulPredictions) +
                              " useful > " +
                              std::to_string(
                                  result.correctlyPredictedUses) +
                              " correctly predicted uses";
                   });
    return result;
}

} // namespace

IdealMachineResult
runIdealMachine(TraceSource &source, const IdealMachineConfig &config,
                bool keep_schedule)
{
    return runEngine(source, config, keep_schedule, nullptr);
}

IdealMachineResult
runIdealMachine(TraceSource &source, const IdealMachineConfig &config,
                const OutcomeColumn &outcomes, bool keep_schedule)
{
    panicIf(!config.useValuePrediction || config.perfectValuePrediction,
            "outcome replay needs a classified value-prediction config");
    return runEngine(source, config, keep_schedule, &outcomes);
}

OutcomeColumn
computeOutcomes(TraceSource &source, const IdealMachineConfig &config)
{
    const std::unique_ptr<ClassifiedPredictor> predictor =
        makeClassifiedPredictor(config.predictorKind, config.tableCapacity,
                                config.counterBits, config.missPolicy);
    TableProbe probe{*predictor, config.vpScope, {}};

    OutcomeColumn column;
    forEachBlock(source, [&](const auto &view) {
        simHeartbeat(column.size());
        probe(view);
        const std::size_t n = view.size();
        for (std::size_t k = 0; k < n; ++k) {
            unsigned bits = 0;
            if (predictsValue(view.op(k), view.rd(k), config.vpScope)) {
                const Value actual = view.result(k);
                const ClassifiedPrediction prediction =
                    predictor->predictAndTrain(view.pc(k), actual);
                if (prediction.predicted) {
                    bits = OutcomeColumn::predictedBit;
                    if (prediction.value == actual)
                        bits |= OutcomeColumn::correctBit;
                }
            }
            column.push(bits);
        }
    });
    column.predictionsMade = predictor->predictionsMade();
    column.predictionsCorrect = predictor->predictionsCorrect();
    column.predictionsWrong = predictor->predictionsWrong();
    return column;
}

IdealMachineResult
runIdealMachine(const std::vector<TraceRecord> &records,
                const IdealMachineConfig &config, bool keep_schedule)
{
    BorrowedTraceSource source{TraceSpan(records)};
    return runIdealMachine(source, config, keep_schedule);
}

std::string
IdealMachineResult::report() const
{
    std::ostringstream oss;
    oss << "ideal machine: " << instructions << " insts in " << cycles
        << " cycles (IPC " << ipc << ")\n";
    if (predictionsMade > 0) {
        oss << "  value predictions: " << predictionsMade << " made, "
            << predictionsCorrect << " correct, " << predictionsWrong
            << " wrong, " << usefulPredictions
            << " actually removed a stall\n";
    }
    return oss.str();
}

} // namespace vpsim
